package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"testing"
)

// reference is the canonical encoding as keys were first defined:
// json.Marshal, decoded into a generic tree with numbers kept verbatim,
// and marshalled again so every object's keys come out sorted. Key
// must give the SHA-256 of exactly these bytes for every value it
// accepts, or every stored result in a fleet is orphaned.
func reference(t *testing.T, v any) []byte {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var tree any
	if err := dec.Decode(&tree); err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(tree)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

type keyStrings struct {
	S  string   `json:"s"`
	L  []string `json:"l"`
	Zz string   // untagged: JSON name "Zz" sorts before "l" and "s"
}

type keyNested struct {
	B     bool         `json:"b"`
	I     int64        `json:"i"`
	I8    int8         `json:"a_i8"`
	U     uint64       `json:"u"`
	Arr   []uint16     `json:"arr"`
	Inner []keyStrings `json:"inner"`
	Skip  string       `json:"-"`
	Dash  int          `json:"-,"` // named "-"
	lower int
}

type keyTree struct {
	Name     string    `json:"name"`
	Children []keyTree `json:"children"`
}

func TestKeyMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		name string
		v    any
	}{
		{"top-level string", "fuzz"},
		{"html", keyStrings{S: "<a href=\"x\">&amp;</a>"}},
		{"quote and backslash", keyStrings{S: `"\"\\`}},
		{"control bytes", keyStrings{S: "\x00\x01\b\t\n\v\f\r\x1b\x1f\x7f"}},
		{"line and paragraph separators", keyStrings{S: "a\u2028b\u2029c"}},
		{"non-ASCII", keyStrings{S: "Mix é 漢字 \U0001F642 \u00a0\ufeff\uffff"}},
		// json.Marshal alone writes each invalid byte as the escape
		// \ufffd; the reference turns that into the raw rune.
		{"invalid UTF-8", keyStrings{S: "\xff", L: []string{"a\xc3(b", "\xed\xa0\x80", "\xe2\x82", "\x80\x80"}}},
		{"literal replacement rune", keyStrings{S: "\ufffd\xff\ufffd"}},
		{"nil slice", keyStrings{S: "x"}},
		{"empty slice", keyStrings{L: []string{}}},
		{"slice of empty strings", keyStrings{L: []string{"", ""}}},
		{"numbers and sorting", keyNested{B: true, I: math.MinInt64, I8: -128, U: math.MaxUint64, Arr: []uint16{0, 65535}, Dash: 7, Skip: "gone", lower: 1}},
		{"nil nested slice", keyNested{}},
		{"nested structs", keyNested{Inner: []keyStrings{{S: "<"}, {L: []string{}}, {Zz: "\xfe"}}}},
		{"recursive type", keyTree{Name: "root", Children: []keyTree{{Name: "leaf"}, {Name: "empty", Children: []keyTree{}}}}},
		{"empty struct", struct{}{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := reference(t, tc.v)
			got, err := appendCanonical(nil, tc.v)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("canonical encoding\n got %q\nwant %q", got, want)
			}
			sum := sha256.Sum256(want)
			if k, err := Key(tc.v); err != nil || k != hex.EncodeToString(sum[:]) {
				t.Fatalf("Key = %q, %v; want %x", k, err, sum)
			}
		})
	}
}

type keyMarshalJSON int

func (keyMarshalJSON) MarshalJSON() ([]byte, error) { return []byte("1"), nil }

type keyMarshalText struct{ X int }

func (*keyMarshalText) MarshalText() ([]byte, error) { return []byte("x"), nil }

type keyEmbedded struct{ X int }

// TestKeyRejectsUnsupported: every value whose JSON form the encoder
// does not reproduce is an error, not a key — even when the field holds
// its zero value, so a new field of such a kind fails at once.
func TestKeyRejectsUnsupported(t *testing.T) {
	for _, tc := range []struct {
		name string
		v    any
	}{
		{"nil", nil},
		{"float field", struct{ F float64 }{}},
		{"map field", struct{ M map[string]int }{}},
		{"pointer field", struct{ P *int }{}},
		{"interface field", struct{ A any }{}},
		{"byte slice field", struct{ B []byte }{}},
		{"slice of floats", struct{ F []float32 }{}},
		{"complex field", struct{ C complex128 }{}},
		{"array field", struct{ A [2]int }{}},
		{"chan field", struct{ C chan int }{}},
		{"func field", struct{ F func() }{}},
		{"pointer", &keyStrings{}},
		{"MarshalJSON", struct{ M keyMarshalJSON }{}},
		{"pointer-receiver MarshalText", struct{ M keyMarshalText }{}},
		{"embedded field", struct{ keyEmbedded }{}},
		{"omitempty", struct {
			N int `json:"n,omitempty"`
		}{}},
		{"string option", struct {
			N int `json:"n,string"`
		}{}},
		{"duplicate names", struct {
			A int
			B int `json:"A"`
		}{}},
		{"tag name beyond letters, digits, _ and -", struct {
			A int `json:"a b"`
		}{}},
	} {
		if k, err := Key(tc.v); err == nil {
			t.Errorf("%s: Key = %s, want an error", tc.name, k)
		}
	}
}
