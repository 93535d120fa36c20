// Package store is a content-addressed result cache for deterministic
// simulation runs. Because a run is fully determined by its request
// (options + workload mix + budget + seed — PR 1's fixed-seed
// guarantee), the canonical JSON encoding of the request hashed with
// SHA-256 addresses the result forever. The store keeps a byte-budgeted
// in-memory LRU in front of an on-disk layer
// (<dir>/<hh>/<hash>.json, where hh is the first two hex digits);
// disk writes are atomic (temp file + rename) and disk reads verify an
// embedded payload checksum, so a torn or corrupted file is silently
// treated as a miss and removed.
package store

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Payload validates data as one JSON document and returns it in the
// form the store keeps and a disk read returns: compact, with HTML
// characters escaped, as json.Marshal writes it. A result that arrives
// from a peer goes through Payload before Put, so every tier holds, and
// every answer carries, the same bytes for a key.
func Payload(data []byte) ([]byte, error) {
	return json.Marshal(json.RawMessage(data))
}

// Stats are the store's monotonic counters plus current occupancy.
type Stats struct {
	Hits        uint64 // served from memory
	DiskHits    uint64 // served from disk (and promoted to memory)
	Misses      uint64
	Evictions   uint64 // memory-LRU evictions (disk copies survive)
	Corrupt     uint64 // disk entries dropped on checksum mismatch
	Bytes       int64  // current memory footprint
	Entries     int    // current memory entry count
	DiskBytes   int64  // current on-disk envelope footprint
	DiskEntries int    // current on-disk entry count
}

// envelope is the on-disk file format.
type envelope struct {
	Checksum string          `json:"checksum"` // sha256 hex of Payload
	Payload  json.RawMessage `json:"payload"`
}

type entry struct {
	key  string
	data []byte
}

// Store is safe for concurrent use.
type Store struct {
	dir      string
	maxBytes int64

	mu    sync.Mutex
	ll    *list.List // front = most recently used
	items map[string]*list.Element
	bytes int64

	// disk maps key -> on-disk envelope size, maintained incrementally
	// after a one-time scan in New so Stats and Keys never walk the
	// tree on the hot path.
	diskMu    sync.Mutex
	disk      map[string]int64
	diskBytes int64

	hits, diskHits, misses, evictions, corrupt atomic.Uint64
}

// New opens (creating if needed) a store rooted at dir with the given
// in-memory byte budget. maxBytes <= 0 disables the memory layer.
func New(dir string, maxBytes int64) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty dir")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{
		dir:      dir,
		maxBytes: maxBytes,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
		disk:     make(map[string]int64),
	}
	s.scanDisk()
	return s, nil
}

// scanDisk seeds the disk index from an existing cache directory.
// Entries that later fail their checksum are dropped on first read, so
// an optimistic size-only scan is enough here.
func (s *Store) scanDisk() {
	subdirs, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	for _, sub := range subdirs {
		if !sub.IsDir() || len(sub.Name()) != 2 {
			continue
		}
		files, err := os.ReadDir(filepath.Join(s.dir, sub.Name()))
		if err != nil {
			continue
		}
		for _, f := range files {
			name := f.Name()
			if f.IsDir() || !strings.HasSuffix(name, ".json") {
				continue
			}
			info, err := f.Info()
			if err != nil {
				continue
			}
			key := strings.TrimSuffix(name, ".json")
			if !ValidKey(key) {
				continue
			}
			s.disk[key] = info.Size()
			s.diskBytes += info.Size()
		}
	}
}

// Keys returns the content hashes cached in either layer, sorted, so
// peers can enumerate this node's results for warm-up and fill.
func (s *Store) Keys() []string {
	seen := make(map[string]bool)
	s.mu.Lock()
	for key := range s.items {
		seen[key] = true
	}
	s.mu.Unlock()
	s.diskMu.Lock()
	for key := range s.disk {
		seen[key] = true
	}
	s.diskMu.Unlock()
	keys := make([]string, 0, len(seen))
	for key := range seen {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	return keys
}

func (s *Store) diskTrack(key string, size int64) {
	s.diskMu.Lock()
	s.diskBytes += size - s.disk[key]
	s.disk[key] = size
	s.diskMu.Unlock()
}

func (s *Store) diskForget(key string) {
	s.diskMu.Lock()
	if size, ok := s.disk[key]; ok {
		s.diskBytes -= size
		delete(s.disk, key)
	}
	s.diskMu.Unlock()
}

// ValidKey reports whether key is a content address as Key makes them:
// 64 lowercase hex digits. Only such keys reach the file system, so no
// key can name a path outside the store's directory.
func ValidKey(key string) bool {
	if len(key) != 64 {
		return false
	}
	for i := 0; i < len(key); i++ {
		if c := key[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func (s *Store) path(key string) string {
	return filepath.Join(s.dir, key[:2], key+".json")
}

// Get returns the cached payload for key. Callers must not mutate the
// returned slice. A key that is not ValidKey is a miss.
func (s *Store) Get(key string) ([]byte, bool) {
	if !ValidKey(key) {
		s.misses.Add(1)
		return nil, false
	}
	s.mu.Lock()
	if el, ok := s.items[key]; ok {
		s.ll.MoveToFront(el)
		data := el.Value.(*entry).data
		s.mu.Unlock()
		s.hits.Add(1)
		return data, true
	}
	s.mu.Unlock()

	data, ok := s.readDisk(key)
	if !ok {
		s.misses.Add(1)
		return nil, false
	}
	s.diskHits.Add(1)
	s.memPut(key, data)
	return data, true
}

// readDisk loads and verifies one on-disk entry. Any inconsistency —
// unreadable file, malformed envelope, checksum mismatch — removes the
// file and reports a miss.
func (s *Store) readDisk(key string) ([]byte, bool) {
	raw, err := os.ReadFile(s.path(key))
	if err != nil {
		return nil, false
	}
	var env envelope
	if err := json.Unmarshal(raw, &env); err != nil {
		s.dropCorrupt(key)
		return nil, false
	}
	sum := sha256.Sum256(env.Payload)
	if env.Checksum != hex.EncodeToString(sum[:]) {
		s.dropCorrupt(key)
		return nil, false
	}
	return env.Payload, true
}

func (s *Store) dropCorrupt(key string) {
	s.corrupt.Add(1)
	os.Remove(s.path(key))
	s.diskForget(key)
}

// Put stores data under key in both layers. data must be a valid JSON
// document (results always are); it is embedded verbatim in the on-disk
// envelope. Concurrent writers of the same key are safe: each writes
// its own temp file and the atomic rename leaves exactly one
// <hash>.json behind. A key that is not ValidKey is an error.
func (s *Store) Put(key string, data []byte) error {
	if !ValidKey(key) {
		return fmt.Errorf("store: malformed key %q", key)
	}
	s.memPut(key, data)
	return s.writeDisk(key, data)
}

func (s *Store) memPut(key string, data []byte) {
	if s.maxBytes <= 0 || int64(len(data)) > s.maxBytes {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[key]; ok {
		e := el.Value.(*entry)
		s.bytes += int64(len(data)) - int64(len(e.data))
		e.data = data
		s.ll.MoveToFront(el)
	} else {
		s.items[key] = s.ll.PushFront(&entry{key: key, data: data})
		s.bytes += int64(len(data))
	}
	for s.bytes > s.maxBytes {
		el := s.ll.Back()
		if el == nil {
			break
		}
		e := s.ll.Remove(el).(*entry)
		delete(s.items, e.key)
		s.bytes -= int64(len(e.data))
		s.evictions.Add(1)
	}
}

func (s *Store) writeDisk(key string, data []byte) error {
	sum := sha256.Sum256(data)
	env, err := json.Marshal(envelope{
		Checksum: hex.EncodeToString(sum[:]),
		Payload:  json.RawMessage(data),
	})
	if err != nil {
		return err
	}
	dir := filepath.Dir(s.path(key))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, key+".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(env); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), s.path(key)); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	s.diskTrack(key, int64(len(env)))
	return nil
}

// Stats snapshots the counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	bytes, entries := s.bytes, len(s.items)
	s.mu.Unlock()
	s.diskMu.Lock()
	diskBytes, diskEntries := s.diskBytes, len(s.disk)
	s.diskMu.Unlock()
	return Stats{
		Hits:        s.hits.Load(),
		DiskHits:    s.diskHits.Load(),
		Misses:      s.misses.Load(),
		Evictions:   s.evictions.Load(),
		Corrupt:     s.corrupt.Load(),
		Bytes:       bytes,
		Entries:     entries,
		DiskBytes:   diskBytes,
		DiskEntries: diskEntries,
	}
}
