package store

import (
	"crypto/sha256"
	"encoding"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"
)

// Key returns the content address of a request value: the SHA-256 hex
// digest of its canonical JSON encoding. The encoding is json.Marshal's
// with every object's keys sorted, so two specs that declare the same
// fields in different orders produce the same key. It is written in one
// pass over the typed value, from a plan computed once per type.
//
// Only bools, integers, strings, and slices and structs of those are
// encoded. Anything whose JSON form this encoder would not
// reproduce exactly — floats, maps, pointers, interfaces, []byte,
// embedded fields, types with their own MarshalJSON or MarshalText,
// and tag options such as omitempty — is an error, never a key.
func Key(v any) (string, error) {
	var buf [1024]byte
	data, err := appendCanonical(buf[:0], v)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	var digest [2 * sha256.Size]byte
	hex.Encode(digest[:], sum[:])
	return string(digest[:]), nil
}

// appendCanonical appends v's canonical JSON encoding to b.
func appendCanonical(b []byte, v any) ([]byte, error) {
	rv := reflect.ValueOf(v)
	if !rv.IsValid() {
		return nil, fmt.Errorf("store: key of nil")
	}
	enc, err := encoderFor(rv.Type())
	if err != nil {
		return nil, err
	}
	return enc.append(b, rv), nil
}

// encoder is the plan for one type: its kind, and for a struct its
// encodable fields in key order, for a slice its element's plan.
type encoder struct {
	kind   reflect.Kind
	fields []field
	elem   *encoder
}

type field struct {
	name   string
	prefix []byte // `"name":`
	index  int
	enc    *encoder
}

var (
	encoders          sync.Map // reflect.Type -> *encoder
	jsonMarshalerType = reflect.TypeOf((*json.Marshaler)(nil)).Elem()
	textMarshalerType = reflect.TypeOf((*encoding.TextMarshaler)(nil)).Elem()
)

func encoderFor(t reflect.Type) (*encoder, error) {
	if enc, ok := encoders.Load(t); ok {
		return enc.(*encoder), nil
	}
	enc, err := newEncoder(t, map[reflect.Type]*encoder{})
	if err != nil {
		return nil, err
	}
	encoders.Store(t, enc)
	return enc, nil
}

// newEncoder builds t's plan. building holds the plans under
// construction, so a type that contains itself through a slice refers
// to its own plan.
func newEncoder(t reflect.Type, building map[reflect.Type]*encoder) (*encoder, error) {
	if enc, ok := building[t]; ok {
		return enc, nil
	}
	if t.Implements(jsonMarshalerType) || t.Implements(textMarshalerType) ||
		reflect.PointerTo(t).Implements(jsonMarshalerType) || reflect.PointerTo(t).Implements(textMarshalerType) {
		return nil, fmt.Errorf("store: key of %v: custom JSON or text marshaler", t)
	}
	enc := &encoder{kind: t.Kind()}
	building[t] = enc
	var err error
	switch enc.kind {
	case reflect.Bool, reflect.String,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
	case reflect.Slice:
		if t.Elem().Kind() == reflect.Uint8 {
			return nil, fmt.Errorf("store: key of %v: byte slices encode as base64", t)
		}
		enc.elem, err = newEncoder(t.Elem(), building)
	case reflect.Struct:
		enc.fields, err = structFields(t, building)
	default:
		err = fmt.Errorf("store: key of %v: unsupported kind %v", t, t.Kind())
	}
	if err != nil {
		return nil, err
	}
	return enc, nil
}

// structFields lists the fields json.Marshal would write for t, sorted
// by their JSON names.
func structFields(t reflect.Type, building map[reflect.Type]*encoder) ([]field, error) {
	var fields []field
	names := map[string]bool{}
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if f.Anonymous {
			return nil, fmt.Errorf("store: key of %v: embedded field %s", t, f.Name)
		}
		tag := f.Tag.Get("json")
		if !f.IsExported() || tag == "-" {
			continue
		}
		name, opts, _ := strings.Cut(tag, ",")
		if opts != "" {
			return nil, fmt.Errorf("store: key of %v: field %s has tag options %q", t, f.Name, opts)
		}
		if name == "" {
			name = f.Name
		} else if strings.IndexFunc(name, func(r rune) bool {
			return !unicode.IsLetter(r) && !unicode.IsDigit(r) && r != '_' && r != '-'
		}) >= 0 {
			return nil, fmt.Errorf("store: key of %v: field %s has JSON name %q", t, f.Name, name)
		}
		if names[name] {
			return nil, fmt.Errorf("store: key of %v: two fields named %q", t, name)
		}
		enc, err := newEncoder(f.Type, building)
		if err != nil {
			return nil, err
		}
		names[name] = true
		fields = append(fields, field{name: name, prefix: append(appendString(nil, name), ':'), index: i, enc: enc})
	}
	sort.Slice(fields, func(i, j int) bool {
		return fields[i].name < fields[j].name
	})
	return fields, nil
}

func (e *encoder) append(b []byte, v reflect.Value) []byte {
	switch e.kind {
	case reflect.Bool:
		return strconv.AppendBool(b, v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return strconv.AppendInt(b, v.Int(), 10)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return strconv.AppendUint(b, v.Uint(), 10)
	case reflect.String:
		return appendString(b, v.String())
	case reflect.Slice:
		if v.IsNil() {
			return append(b, "null"...)
		}
		b = append(b, '[')
		for i := 0; i < v.Len(); i++ {
			if i > 0 {
				b = append(b, ',')
			}
			b = e.elem.append(b, v.Index(i))
		}
		return append(b, ']')
	default: // reflect.Struct
		b = append(b, '{')
		for i, f := range e.fields {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, f.prefix...)
			b = f.enc.append(b, v.Field(f.index))
		}
		return append(b, '}')
	}
}

// appendString writes s as the reference encoding does: with
// json.Marshal's escaping, HTML characters included. A string with
// nothing to escape is copied as is.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			// json.Marshal escapes each invalid UTF-8 byte as \ufffd,
			// which the reference decoded and wrote back as the raw
			// rune; []rune makes the same replacement byte by byte.
			// Marshalling a string cannot fail.
			q, _ := json.Marshal(string([]rune(s)))
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
