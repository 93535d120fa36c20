package telemetry

import (
	"bytes"
	"encoding/json"
	"testing"
)

func TestCauseNameRoundTrip(t *testing.T) {
	for c := CauseNone; c < NumCauses; c++ {
		got, ok := CauseByName(c.String())
		if !ok || got != c {
			t.Errorf("CauseByName(%q) = %v, %v; want %v, true", c.String(), got, ok, c)
		}
	}
	if _, ok := CauseByName("bogus"); ok {
		t.Error("CauseByName accepted an unknown name")
	}
	if Cause(200).String() != "cause(200)" {
		t.Errorf("out-of-range String() = %q", Cause(200).String())
	}
}

// driveCycles feeds n cycles where thread 0 dispatches every third cycle
// and is otherwise charged CauseROBFull, and thread 1 alternates
// CauseIQFull / dispatch-active.
func driveCycles(c *Collector, st *CycleState, n int64) {
	for now := int64(0); now < n; now++ {
		st.Reset()
		if now%3 == 0 {
			st.Dispatched[0] = 2
		} else {
			st.Causes[0] = CauseROBFull
		}
		if now%2 == 0 {
			st.Causes[1] = CauseIQFull
		} else {
			st.Dispatched[1] = 1
		}
		st.ROBLen[0] = 10
		st.ROBLen[1] = 4
		st.IQLen = 7
		st.IntRegs = 3
		st.FPRegs = 1
		st.Owner = -1
		c.RecordCycle(now, st)
	}
}

func TestStallAccountingInvariant(t *testing.T) {
	c := NewCollector(2, Config{})
	st := NewCycleState(2)
	const n = 999
	driveCycles(c, st, n)
	s := c.Summary()
	if s.Cycles != n {
		t.Fatalf("Cycles = %d, want %d", s.Cycles, n)
	}
	if err := s.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
	// Thread 0: dispatch-active on cycles 0,3,6,... = 333 cycles, two
	// uops each; the rest charged to rob_full.
	th0 := s.Threads[0]
	if th0.ActiveCycles != 333 || th0.DispatchedUops != 666 {
		t.Errorf("thread 0 active/uops = %d/%d, want 333/666", th0.ActiveCycles, th0.DispatchedUops)
	}
	if got := th0.StallCycles(CauseROBFull); got != n-333 {
		t.Errorf("thread 0 rob_full = %d, want %d", got, n-333)
	}
	if got := th0.StallCycles(CauseIQFull); got != 0 {
		t.Errorf("thread 0 iq_full = %d, want 0", got)
	}
	if th0.MeanROBOcc != 10 {
		t.Errorf("thread 0 mean ROB occupancy = %v, want 10", th0.MeanROBOcc)
	}
	if s.MeanIQOcc != 7 || s.MeanIntRegs != 3 || s.MeanFPRegs != 1 {
		t.Errorf("shared occupancies = %v/%v/%v, want 7/3/1", s.MeanIQOcc, s.MeanIntRegs, s.MeanFPRegs)
	}
	if s.L2OwnedFrac != 0 {
		t.Errorf("L2OwnedFrac = %v, want 0 (owner always -1)", s.L2OwnedFrac)
	}
	stalls, active := s.StallTotals()
	var total uint64
	for _, v := range stalls {
		total += v
	}
	if total+active != uint64(2*n) {
		t.Errorf("StallTotals: %d stall + %d active != %d thread-cycles", total, active, 2*n)
	}
}

func TestSampleRingOverflow(t *testing.T) {
	c := NewCollector(1, Config{SampleInterval: 1, SampleCap: 4})
	st := NewCycleState(1)
	for now := int64(0); now < 10; now++ {
		st.Reset()
		st.Dispatched[0] = 1
		st.Owner = -1
		c.RecordCycle(now, st)
	}
	if c.SampleCount() != 4 {
		t.Fatalf("SampleCount = %d, want 4", c.SampleCount())
	}
	var cycles []int64
	c.Samples(func(cycle int64, rob []int32, iq, ir, fr int32, owner int8) {
		cycles = append(cycles, cycle)
	})
	want := []int64{6, 7, 8, 9}
	for i, w := range want {
		if cycles[i] != w {
			t.Fatalf("retained sample cycles %v, want %v", cycles, want)
		}
	}
	if s := c.Summary(); s.SamplesDropped != 6 {
		t.Errorf("SamplesDropped = %d, want 6", s.SamplesDropped)
	}
}

// TestRingsGrowOnDemand: the sample and grant rings start empty, grow
// only as far as a run records (never past their caps, which need not
// be a power of two), and keep the newest entries in order once they
// wrap.
func TestRingsGrowOnDemand(t *testing.T) {
	const sampleCap, grantCap = 1000, 100
	c := NewCollector(2, Config{SampleInterval: 1, SampleCap: sampleCap, GrantCap: grantCap})
	if len(c.samples) != 0 || len(c.grants) != 0 {
		t.Fatalf("new collector holds %d sample and %d grant rows, want none", len(c.samples), len(c.grants))
	}
	st := NewCycleState(2)
	record := func(from, to int64) {
		for now := from; now < to; now++ {
			st.Reset()
			st.Dispatched[0], st.Dispatched[1] = 1, 1
			st.ROBLen[0], st.ROBLen[1] = int32(now), int32(-now)
			st.Owner = -1
			c.RecordCycle(now, st)
			c.GrantAcquired(int(now%2), uint64(now), now)
			c.GrantReleased(int(now%2), now+1)
		}
	}
	record(0, 10)
	if len(c.samples) != firstSampleRows || len(c.grants) != firstGrantRows {
		t.Fatalf("after 10 cycles: %d sample and %d grant rows, want %d and %d",
			len(c.samples), len(c.grants), firstSampleRows, firstGrantRows)
	}
	record(10, 2600)
	if len(c.samples) != sampleCap || len(c.grants) != grantCap {
		t.Fatalf("after 2600 cycles: %d sample and %d grant rows, want the caps %d and %d",
			len(c.samples), len(c.grants), sampleCap, grantCap)
	}
	next := int64(2600 - sampleCap)
	c.Samples(func(cycle int64, rob []int32, iq, ir, fr int32, owner int8) {
		if cycle != next || rob[0] != int32(cycle) || rob[1] != int32(-cycle) {
			t.Fatalf("sample %d: cycle %d rob %v", next, cycle, rob)
		}
		next++
	})
	nextGrant := int64(2600 - grantCap)
	c.Grants(func(g GrantInterval) {
		if g.Start != nextGrant || g.End != nextGrant+1 {
			t.Fatalf("grant %d: %+v", nextGrant, g)
		}
		nextGrant++
	})
	s := c.Summary()
	if next != 2600 || nextGrant != 2600 || s.Samples != sampleCap ||
		s.SamplesDropped != 2600-sampleCap || s.GrantsDropped != 2600-grantCap {
		t.Fatalf("retained up to sample %d and grant %d; summary %+v", next, nextGrant, s)
	}
}

func TestGrantLifecycle(t *testing.T) {
	c := NewCollector(2, Config{GrantCap: 2})
	c.GrantAcquired(1, 0x40, 100)
	c.GrantPiggyback(1, 0x44, 120)
	c.GrantPiggyback(1, 0x48, 130)
	c.GrantReleased(1, 250)
	c.GrantAcquired(0, 0x80, 300)
	// Missing release: a new acquisition must close the stale tenancy.
	c.GrantAcquired(1, 0xc0, 400)
	c.Finish(500)

	var got []GrantInterval
	c.Grants(func(g GrantInterval) { got = append(got, g) })
	if len(got) != 2 {
		t.Fatalf("retained %d grants, want 2 (cap)", len(got))
	}
	if got[0].Tid != 0 || got[0].Start != 300 || got[0].End != 400 {
		t.Errorf("stale tenancy closed as %+v, want tid 0 [300,400]", got[0])
	}
	if got[1].Tid != 1 || got[1].Start != 400 || got[1].End != 500 {
		t.Errorf("open tenancy finished as %+v, want tid 1 [400,500]", got[1])
	}
	s := c.Summary()
	if s.Grants.Count != 3 || s.Grants.Piggybacks != 2 {
		t.Errorf("grants count/piggybacks = %d/%d, want 3/2", s.Grants.Count, s.Grants.Piggybacks)
	}
	if s.GrantsDropped != 1 {
		t.Errorf("GrantsDropped = %d, want 1", s.GrantsDropped)
	}
	if s.Grants.HeldCycles != 150+100+100 {
		t.Errorf("HeldCycles = %d, want 350", s.Grants.HeldCycles)
	}
}

func TestRecordCycleDoesNotAllocate(t *testing.T) {
	c := NewCollector(4, Config{SampleInterval: 1, SampleCap: 8, GrantCap: 4})
	st := NewCycleState(4)
	var now int64
	avg := testing.AllocsPerRun(1000, func() {
		st.Reset()
		st.Dispatched[0] = 1
		st.Causes[1] = CauseROBFull
		st.Causes[2] = CauseL2GrantWait
		st.Causes[3] = CauseFetchStarved
		st.Owner = 1
		c.RecordCycle(now, st)
		c.GrantAcquired(1, 0x1000, now)
		c.GrantReleased(1, now+1)
		now++
	})
	if avg != 0 {
		t.Fatalf("RecordCycle+grant hooks allocate %v allocs/cycle, want 0", avg)
	}
}

func TestChromeTraceStructure(t *testing.T) {
	c := NewCollector(2, Config{SampleInterval: 2, SampleCap: 64})
	st := NewCycleState(2)
	driveCycles(c, st, 40)
	c.GrantAcquired(0, 0x99, 5)
	c.GrantReleased(0, 5) // zero-length tenancy must still render (dur >= 1)
	c.GrantAcquired(1, 0xaa, 10)
	c.Finish(40)

	var buf bytes.Buffer
	if err := c.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   int64          `json:"ts"`
			Dur  int64          `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("empty traceEvents")
	}
	var meta, counters, slices int
	type track struct {
		pid, tid int
		name     string
	}
	last := map[track]int64{}
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			meta++
		case "C":
			counters++
			k := track{ev.Pid, ev.Tid, ev.Name}
			if prev, ok := last[k]; ok && ev.Ts < prev {
				t.Fatalf("track %+v: ts %d after %d (non-monotonic)", k, ev.Ts, prev)
			}
			last[k] = ev.Ts
		case "X":
			slices++
			if ev.Dur < 1 {
				t.Errorf("slice %q has dur %d < 1", ev.Name, ev.Dur)
			}
		default:
			t.Errorf("unexpected phase %q", ev.Ph)
		}
	}
	if meta == 0 || counters == 0 {
		t.Fatalf("want metadata and counter events, got M=%d C=%d", meta, counters)
	}
	if slices != 2 {
		t.Fatalf("want 2 grant slices (one closed by Finish), got %d", slices)
	}
}

func TestSummaryJSONRoundTrip(t *testing.T) {
	c := NewCollector(2, Config{})
	st := NewCycleState(2)
	driveCycles(c, st, 10)
	data, err := json.Marshal(c.Summary())
	if err != nil {
		t.Fatal(err)
	}
	var s Summary
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckInvariant(); err != nil {
		t.Fatalf("invariant lost across JSON: %v", err)
	}
}
