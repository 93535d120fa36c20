package server

import (
	"strings"
	"testing"
)

// FuzzJobNodeTag: the parser accepts or refuses any string without
// panicking and only ever returns a prefix of it; an ID minted for any
// self URL and spec gives back NodeTag(self) and, through parseJobID,
// its full cache key and sequence number; an untagged ID is never taken
// for a tagged one. The seed corpus lives under
// testdata/fuzz/FuzzJobNodeTag.
func FuzzJobNodeTag(f *testing.F) {
	f.Fuzz(func(t *testing.T, self, scheme string, budget, seed, seq uint64, id string) {
		if tag, ok := JobNodeTag(id); ok && (len(tag) != nodeTagLen || !strings.HasPrefix(id, tag+"-")) {
			t.Fatalf("JobNodeTag(%q) = %q, not a %d-char prefix followed by a dash", id, tag, nodeTagLen)
		}
		key, err := SpecKey(RunSpec{Scheme: scheme, Mixes: []string{"Mix 1"}, Budget: budget, Seed: seed}, 0)
		if err != nil {
			return
		}
		minted := jobID(NodeTag(self), key, seq)
		if tag, ok := JobNodeTag(minted); !ok || tag != NodeTag(self) {
			t.Fatalf("JobNodeTag(%q) = %q, %v; want NodeTag(%q) = %q", minted, tag, ok, self, NodeTag(self))
		}
		if tag, ok := JobNodeTag(jobID("", key, seq)); ok {
			t.Fatalf("untagged ID %q parsed as tagged (%q)", jobID("", key, seq), tag)
		}
		parseJobID(NodeTag(self), id) // must not panic
		for _, tag := range []string{NodeTag(self), ""} {
			gotKey, gotSeq, ok := parseJobID(tag, jobID(tag, key, seq))
			if want := seq != 0; ok != want || ok && (gotKey != key || gotSeq != seq) {
				t.Fatalf("parseJobID(%q, %q) = %q, %d, %v; want %q, %d", tag, jobID(tag, key, seq), gotKey, gotSeq, ok, key, seq)
			}
		}
		if _, _, ok := parseJobID("", minted); ok {
			t.Fatalf("tagged ID %q parsed as untagged", minted)
		}
	})
}
