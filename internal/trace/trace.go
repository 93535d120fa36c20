// Package trace serializes instruction traces to a compact binary format
// and replays them as pipeline.TraceSource streams. This is the bridge to
// real workloads: anyone holding actual program traces (e.g. produced by
// a binary instrumentation tool) can convert them to this format and run
// them through the simulator instead of the synthetic SPEC stand-ins.
//
// Format (little endian):
//
//	magic   [8]byte  "TLROBTR1"
//	count   uint64   number of records (0 = unknown/streamed); a
//	                 reader rejects a nonzero count that disagrees
//	                 with the records that follow
//	records:
//	  pc     uint64
//	  addr   uint64
//	  op     uint8   isa.OpClass
//	  dest   int8
//	  src1   int8
//	  src2   int8
//	  flags  uint8   bit0 = branch taken
//	  _      [3]byte padding (records are 24 bytes)
//
// Branch taken-targets are not stored per record; the reader reconstructs
// them from the next record's PC, which is exactly what the front end's
// BTB needs.
package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/isa"
)

var magic = [8]byte{'T', 'L', 'R', 'O', 'B', 'T', 'R', '1'}

const recordSize = 24

// Writer streams trace records to an io.Writer.
type Writer struct {
	w     *bufio.Writer
	count uint64
	buf   [recordSize]byte
}

// NewWriter writes the header and returns a Writer. The count field is
// written as 0 (streamed), so the writer never needs to seek back.
func NewWriter(w io.Writer) (*Writer, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic[:]); err != nil {
		return nil, err
	}
	var zero [8]byte
	if _, err := bw.Write(zero[:]); err != nil {
		return nil, err
	}
	return &Writer{w: bw}, nil
}

// Write appends one record.
func (w *Writer) Write(ti *isa.TraceInst) error {
	if err := ti.Validate(); err != nil {
		return err
	}
	b := w.buf[:]
	binary.LittleEndian.PutUint64(b[0:], ti.PC)
	binary.LittleEndian.PutUint64(b[8:], ti.Addr)
	b[16] = byte(ti.Op)
	b[17] = byte(ti.Dest)
	b[18] = byte(ti.Src1)
	b[19] = byte(ti.Src2)
	var flags byte
	if ti.Taken {
		flags |= 1
	}
	b[20] = flags
	b[21], b[22], b[23] = 0, 0, 0
	if _, err := w.w.Write(b); err != nil {
		return err
	}
	w.count++
	return nil
}

// Count returns how many records were written.
func (w *Writer) Count() uint64 { return w.count }

// Flush flushes buffered records to the underlying writer.
func (w *Writer) Flush() error { return w.w.Flush() }

// Reader loads an entire trace into memory and replays it in a loop as a
// pipeline.TraceSource (simulation budgets routinely exceed trace
// lengths; looping matches the synthetic generators' semantics).
type Reader struct {
	insts   []isa.TraceInst
	pos     int
	targets map[uint64]uint64
}

// NewReader parses a serialized trace.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	var hdr [16]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: short header: %w", err)
	}
	if [8]byte(hdr[:8]) != magic {
		return nil, fmt.Errorf("trace: bad magic %q", hdr[:8])
	}
	// The header count is untrusted: it is checked against the records
	// actually read, never used to size an allocation.
	count := binary.LittleEndian.Uint64(hdr[8:])
	rd := &Reader{targets: make(map[uint64]uint64)}
	var rec [recordSize]byte
	for {
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			if err == io.EOF {
				break
			}
			return nil, fmt.Errorf("trace: truncated record: %w", err)
		}
		ti := isa.TraceInst{
			PC:    binary.LittleEndian.Uint64(rec[0:]),
			Addr:  binary.LittleEndian.Uint64(rec[8:]),
			Op:    isa.OpClass(rec[16]),
			Dest:  int8(rec[17]),
			Src1:  int8(rec[18]),
			Src2:  int8(rec[19]),
			Taken: rec[20]&1 != 0,
		}
		if err := ti.Validate(); err != nil {
			return nil, fmt.Errorf("trace: record %d: %w", len(rd.insts), err)
		}
		rd.insts = append(rd.insts, ti)
	}
	if len(rd.insts) == 0 {
		return nil, fmt.Errorf("trace: empty trace")
	}
	if count != 0 && count != uint64(len(rd.insts)) {
		return nil, fmt.Errorf("trace: header says %d records, read %d", count, len(rd.insts))
	}
	// Reconstruct taken-branch targets from successor PCs.
	for i, ti := range rd.insts {
		if ti.Op == isa.OpBranch && ti.Taken {
			next := rd.insts[(i+1)%len(rd.insts)]
			rd.targets[ti.PC] = next.PC
		}
	}
	return rd, nil
}

// Len returns the number of records in the trace.
func (r *Reader) Len() int { return len(r.insts) }

// Next implements pipeline.TraceSource, looping over the trace.
func (r *Reader) Next(out *isa.TraceInst) {
	*out = r.insts[r.pos]
	r.pos++
	if r.pos == len(r.insts) {
		r.pos = 0
	}
}

// BranchTarget implements pipeline.TraceSource.
func (r *Reader) BranchTarget(pc uint64) uint64 { return r.targets[pc] }

// Regions scans the trace and reports tight code/data bounds so the
// simulator can prewarm its caches (pipeline.RegionProvider).
func (r *Reader) Regions() []isa.Region {
	var codeLo, codeHi, dataLo, dataHi uint64
	codeLo = ^uint64(0)
	dataLo = ^uint64(0)
	for _, ti := range r.insts {
		if ti.PC < codeLo {
			codeLo = ti.PC
		}
		if ti.PC > codeHi {
			codeHi = ti.PC
		}
		if ti.Op.IsMem() {
			if ti.Addr < dataLo {
				dataLo = ti.Addr
			}
			if ti.Addr > dataHi {
				dataHi = ti.Addr
			}
		}
	}
	out := []isa.Region{{Base: codeLo, Size: codeHi - codeLo + 4, Code: true}}
	if dataLo != ^uint64(0) {
		out = append(out, isa.Region{Base: dataLo, Size: dataHi - dataLo + 8})
	}
	return out
}
