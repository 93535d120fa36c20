package cluster

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"
)

// TestReadBody: an answer with a Content-Length within the cap is read
// into one buffer of that size; an unknown length, or one above the cap
// (a header that might lie), is read as it arrives; and a body shorter
// than its header says is an error, never a truncated answer.
func TestReadBody(t *testing.T) {
	const answer = `{"status":"done"}`
	resp := func(length int64, body string) *http.Response {
		return &http.Response{ContentLength: length, Body: io.NopCloser(strings.NewReader(body))}
	}
	for _, tc := range []struct {
		name   string
		length int64
		body   string
	}{
		{"known length", int64(len(answer)), answer},
		{"empty", 0, ""},
		{"unknown length", -1, answer},
		{"length above the cap", maxSizedBody + 1, answer},
	} {
		got, err := readBody(resp(tc.length, tc.body))
		if err != nil || !bytes.Equal(got, []byte(tc.body)) {
			t.Errorf("%s: got %q, %v; want %q", tc.name, got, err, tc.body)
		}
		if tc.length >= 0 && tc.length <= maxSizedBody && cap(got) != int(tc.length) {
			t.Errorf("%s: buffer capacity %d, want exactly %d", tc.name, cap(got), tc.length)
		}
	}
	for _, body := range []string{answer[:5], ""} {
		got, err := readBody(resp(int64(len(answer)), body))
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("short body %q: got %q, %v; want io.ErrUnexpectedEOF", body, got, err)
		}
	}
}
