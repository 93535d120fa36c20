package cluster

import (
	"encoding/json"
	"reflect"
	"sort"
	"testing"
)

// FuzzMemberChange feeds any decoded POST /v1/members body to
// applyChange, twice over the same ring. It must never panic, never
// empty the ring, keep Nodes() sorted and distinct, admit only members
// that pass validateNodeURL, report exactly what changed, and fire the
// OnChange hook once per real change with the list from before it.
func FuzzMemberChange(f *testing.F) {
	for _, seed := range []string{
		`{"action":"add","node":"http://node-d:1"}`,
		`{"action":"add","node":"not a url"}`,
		`{"action":"add","node":""}`,
		`{"action":"remove","node":"http://node-a:1"}`,
		`{"action":"remove","node":""}`,
		`{"action":"set","nodes":["http://node-b:1","http://node-e:1"]}`,
		`{"action":"set","nodes":["http://x:1","http://x:1"]}`,
		`{"action":"set","nodes":[]}`,
		`{"action":"set","nodes":["http://only:1"]}`,
		`{"action":"set","nodes":["/relative"]}`,
		`{"action":"drop","node":"http://node-a:1"}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var ch MemberChange
		if json.Unmarshal(body, &ch) != nil {
			return
		}
		ring, err := NewRing(threeNodes(), 8)
		if err != nil {
			t.Fatal(err)
		}
		admitted := map[string]bool{}
		for _, n := range threeNodes() {
			admitted[n] = true
		}
		var fired [][]string
		ring.OnChange(func(before []string) { fired = append(fired, before) })
		for round := 0; round < 2; round++ {
			prev := ring.Nodes()
			fired = nil
			added, removed, err := applyChange(ring, ch)
			nodes := ring.Nodes()
			if len(nodes) == 0 {
				t.Fatalf("%+v emptied the ring", ch)
			}
			if !sort.StringsAreSorted(nodes) {
				t.Fatalf("%+v: members not sorted: %q", ch, nodes)
			}
			for i := 1; i < len(nodes); i++ {
				if nodes[i] == nodes[i-1] {
					t.Fatalf("%+v: duplicate member %q", ch, nodes[i])
				}
			}
			for _, n := range nodes {
				if !admitted[n] && validateNodeURL(n) != nil {
					t.Fatalf("%+v admitted %q, which is not a base URL", ch, n)
				}
			}
			if err != nil {
				if added != nil || removed != nil || !reflect.DeepEqual(nodes, prev) || fired != nil {
					t.Fatalf("%+v failed (%v) but changed the ring: %q -> %q", ch, err, prev, nodes)
				}
				continue
			}
			if len(nodes) != len(prev)+len(added)-len(removed) {
				t.Fatalf("%+v: %q -> %q, reported +%q -%q", ch, prev, nodes, added, removed)
			}
			changed := len(added)+len(removed) > 0
			if changed && !reflect.DeepEqual(fired, [][]string{prev}) || !changed && fired != nil {
				t.Fatalf("%+v: OnChange got %q for +%q -%q", ch, fired, added, removed)
			}
		}
	})
}
