package server

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/store"
)

// dotdotKey is 64 bytes long but names a file in the parent of the
// cache directory: <cachedir>/../..aaa….json.
var dotdotKey = ".." + strings.Repeat("a", 62)

// cacheKeyServer serves a store rooted at <root>/cache next to a
// foreign, non-envelope JSON file that dotdotKey would name. It returns
// the handler and a check that fails t if anything outside the cache
// directory was written or deleted.
func cacheKeyServer(t *testing.T) (http.Handler, func(t *testing.T)) {
	root := t.TempDir()
	st, err := store.New(filepath.Join(root, "cache"), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	foreign, content := dotdotKey+".json", `{"not":"an envelope"}`
	if err := os.WriteFile(filepath.Join(root, foreign), []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, func(c *Config) { c.Store = st })
	want := []string{foreign, "cache"}
	sort.Strings(want)
	return s.Handler(), func(t *testing.T) {
		t.Helper()
		entries, err := os.ReadDir(root)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, e := range entries {
			got = append(got, e.Name())
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("outside the cache directory: %v, want %v", got, want)
		}
		if data, _ := os.ReadFile(filepath.Join(root, foreign)); string(data) != content {
			t.Fatalf("foreign file rewritten: %q", data)
		}
	}
}

// cacheDo sends one request for key (path-escaped) to h.
func cacheDo(h http.Handler, method, key, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, "/v1/cache/"+url.PathEscape(key), strings.NewReader(body)))
	return rec
}

// TestCacheKeyStaysInCacheDir: the cache endpoints accept only content
// addresses. A ".."-prefixed 64-byte key once wrote a file next to the
// cache directory, a GET of it deleted a foreign JSON file there as
// corrupt, and a key holding an escaped slash answered 500.
func TestCacheKeyStaysInCacheDir(t *testing.T) {
	h, outsideUnchanged := cacheKeyServer(t)
	for _, key := range []string{
		dotdotKey,
		"aa/" + strings.Repeat("b", 61),
		strings.Repeat("A", 64),
		strings.Repeat("0", 63) + "g",
	} {
		if rec := cacheDo(h, http.MethodGet, key, ""); rec.Code != http.StatusBadRequest {
			t.Errorf("GET %q -> %d, want 400", key, rec.Code)
		}
		outsideUnchanged(t)
		if rec := cacheDo(h, http.MethodPut, key, `{"v":1}`); rec.Code != http.StatusBadRequest {
			t.Errorf("PUT %q -> %d, want 400", key, rec.Code)
		}
		outsideUnchanged(t)
	}
}

// FuzzCacheKey drives PUT and GET /v1/cache/{key} with any key: a
// content address round-trips, anything else is refused, and nothing
// outside the cache directory is ever written or deleted.
func FuzzCacheKey(f *testing.F) {
	valid, err := store.Key("fuzz")
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{valid, "deadbeef", strings.ToUpper(valid), "aa/" + valid[3:], "", ".."} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, key string) {
		h, outsideUnchanged := cacheKeyServer(t)
		miss := cacheDo(h, http.MethodGet, key, "")
		outsideUnchanged(t)
		put := cacheDo(h, http.MethodPut, key, `{"v":1}`)
		get := cacheDo(h, http.MethodGet, key, "")
		switch {
		case store.ValidKey(key):
			if miss.Code != http.StatusNotFound || put.Code != http.StatusNoContent || get.Code != http.StatusOK || get.Body.String() != `{"v":1}` {
				t.Fatalf("valid key %q: GET %d, PUT %d, GET %d %q", key, miss.Code, put.Code, get.Code, get.Body.String())
			}
		case key == "" || key == "." || key == ".." || key == "/":
			// The mux never routes these to the cache handlers: it
			// answers "/v1/cache/%2F" itself with 404 (corpus entry
			// "slash").
			if miss.Code/100 == 2 || put.Code/100 == 2 || get.Code/100 == 2 {
				t.Fatalf("key %q: GET %d, PUT %d, GET %d", key, miss.Code, put.Code, get.Code)
			}
		default:
			if miss.Code != http.StatusBadRequest || put.Code != http.StatusBadRequest || get.Code != http.StatusBadRequest {
				t.Fatalf("key %q: GET %d, PUT %d, GET %d, want 400 for all", key, miss.Code, put.Code, get.Code)
			}
		}
		outsideUnchanged(t)
	})
}
