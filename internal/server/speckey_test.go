package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro"
	"repro/internal/store"
)

// decodeSpec decodes a RunSpec body the way POST /v1/runs does.
func decodeSpec(t *testing.T, body []byte) RunSpec {
	t.Helper()
	var spec RunSpec
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatalf("decode %q: %v", body, err)
	}
	return spec
}

// reordered spells spec as a JSON object with its fields in reverse
// declaration order, zero values written out rather than omitted, and
// ws between every token.
func reordered(t *testing.T, spec RunSpec, ws string) []byte {
	t.Helper()
	fields := []struct {
		name string
		val  any
	}{
		{"timeout_sec", spec.TimeoutSec},
		{"seed", spec.Seed},
		{"budget", spec.Budget},
		{"mixes", spec.Mixes},
		{"threshold", spec.Threshold},
		{"scheme", spec.Scheme},
	}
	var b bytes.Buffer
	b.WriteString(ws + "{" + ws)
	for i, f := range fields {
		if i > 0 {
			b.WriteString(ws + "," + ws)
		}
		v, err := json.Marshal(f.val)
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString(`"` + f.name + `"` + ws + ":" + ws)
		b.Write(v)
	}
	b.WriteString(ws + "}" + ws)
	return b.Bytes()
}

// referenceKey is the content address as keys were first defined, the
// same reference internal/store's key tests hold Key to: the SHA-256
// of json.Marshal's output, decoded into a generic tree with numbers
// kept verbatim and marshalled again so object keys come out sorted.
func referenceKey(t *testing.T, v any) string {
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
	canon, err := json.Marshal(tree)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(canon)
	return hex.EncodeToString(sum[:])
}

// FuzzSpecKey: SpecKey gives one key for a RunSpec body however its
// fields are ordered and spaced, and different keys for specs that
// normalize differently — another seed, budget, mix list or DoD
// threshold. The timeout and the spelling of the scheme name are not
// result material and leave the key alone. Every key is the one the
// reference encoding gives, so stored results keep their addresses.
func FuzzSpecKey(f *testing.F) {
	f.Add("rrob", 0, "Mix 1", "", uint64(0), uint64(0), 0, " ")
	f.Add("rrob", 16, "Mix 1", "Mix 7", uint64(50_000), uint64(1), 30, "\n\t")
	f.Add("baseline32", 7, "Mix 10", "", uint64(1), uint64(math.MaxUint64), 0, "")
	f.Add("prob", 3, "Mix 1", "Mix 1", uint64(5_000_000), uint64(42), 5, "\r\n  ")
	f.Add(" Shared ", -1, "", "", uint64(2), uint64(9), -3, "\t")
	f.Add("cdr", 15, "Mix 4", "bogus", uint64(1000), uint64(3), 0, " ")
	f.Fuzz(func(t *testing.T, scheme string, threshold int, mixA, mixB string, budget, seed uint64, timeout int, ws string) {
		spec := RunSpec{Scheme: scheme, Threshold: threshold, Budget: budget, Seed: seed, TimeoutSec: timeout}
		for _, m := range []string{mixA, mixB} {
			if m != "" {
				spec.Mixes = append(spec.Mixes, m)
			}
		}
		ws = strings.Map(func(r rune) rune {
			if strings.ContainsRune(" \t\r\n", r) {
				return r
			}
			return -1
		}, ws)

		plain, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		spec = decodeSpec(t, plain) // json.Marshal coerces invalid UTF-8
		key, err := SpecKey(spec, 0)
		altKey, altErr := SpecKey(decodeSpec(t, reordered(t, spec, ws)), 0)
		if (err == nil) != (altErr == nil) || key != altKey {
			t.Fatalf("reordered body: key %q (err %v), want %q (err %v)", altKey, altErr, key, err)
		}
		if err != nil {
			return
		}

		norm, sch, mixes, _, err := resolveKey(spec, Config{}.withDefaults())
		if err != nil {
			t.Fatal(err)
		}
		if want := referenceKey(t, newKeySpec(norm, sch, mixes)); key != want {
			t.Fatalf("key %s, reference encoding gives %s", key, want)
		}
		same := func(what string, s RunSpec) {
			if k, err := SpecKey(s, 0); err != nil || k != key {
				t.Fatalf("%s: key %q (err %v), want %q", what, k, err, key)
			}
		}
		differ := func(what string, s RunSpec) {
			if k, err := SpecKey(s, 0); err != nil || k == key {
				t.Fatalf("%s: key %q (err %v), want a valid key other than %q", what, k, err, key)
			}
		}
		same("normalized spec", norm)
		s := spec
		s.TimeoutSec++
		same("other timeout", s)
		s = spec
		s.Scheme = "\t" + strings.ToUpper(spec.Scheme) + " "
		same("scheme respelled", s)

		if norm.Seed < math.MaxUint64 {
			s = spec
			s.Seed = norm.Seed + 1
			differ("other seed", s)
		}
		if norm.Budget > 1 {
			s = spec
			s.Budget = norm.Budget - 1
			differ("other budget", s)
		}
		s = spec
		s.Mixes = []string{"Mix 1"}
		if len(spec.Mixes) == 1 && spec.Mixes[0] == "Mix 1" {
			s.Mixes = []string{"Mix 2"}
		}
		differ("other mixes", s)
		s = spec
		s.Threshold = sch.Opt.DoDThreshold + 1
		if sch.Opt.DoDThreshold > 0 {
			differ("other threshold", s)
		} else {
			same("threshold on a scheme without one", s)
		}
	})
}

// TestSpecKeyCoversEveryOption changes each tlrob.Options field in turn:
// every change must move the key, so a field added to Options cannot
// drop out of the content address unnoticed.
func TestSpecKeyCoversEveryOption(t *testing.T) {
	base := keySpec{Mixes: []string{"Mix 1"}, Budget: 1000, Seed: 1}
	key, err := store.Key(base)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]string{key: "the zero Options"}
	for i := 0; i < reflect.TypeOf(tlrob.Options{}).NumField(); i++ {
		ks := base
		f := reflect.ValueOf(&ks.Options).Elem().Field(i)
		name := "Options." + reflect.TypeOf(tlrob.Options{}).Field(i).Name
		switch f.Kind() {
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			f.SetInt(1)
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			f.SetUint(1)
		default:
			t.Fatalf("%s has kind %v: teach this test to change it", name, f.Kind())
		}
		key, err := store.Key(ks)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if prev, dup := seen[key]; dup {
			t.Fatalf("setting %s gives the key of %s", name, prev)
		}
		seen[key] = name
	}
}

// fleetSpec is the spec shape a fleet's cache hits carry.
var fleetSpec = RunSpec{Scheme: "rrob", Mixes: []string{"Mix 1"}, Budget: 1000, Seed: 7}

// TestSpecKeyAllocs bounds the allocations of one content address. The
// coordinator and the worker each derive it on every request, hits
// included.
func TestSpecKeyAllocs(t *testing.T) {
	if _, err := SpecKey(fleetSpec, 0); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { SpecKey(fleetSpec, 0) }); n > 8 {
		t.Fatalf("SpecKey makes %.0f allocations per call, want at most 8", n)
	}
}

func BenchmarkSpecKey(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := SpecKey(fleetSpec, 0); err != nil {
			b.Fatal(err)
		}
	}
}
