package sweep

import (
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzParseScheduler checks that the scheduler grammar is a faithful
// format for every spec it accepts: rendering the spec with String
// and parsing it again, alone or as a one-entry -scheds list, and
// round-tripping it through JSON all reproduce the spec exactly.
func FuzzParseScheduler(f *testing.F) {
	for _, seed := range []string{
		"uniform",
		"roundrobin",
		"sticky:0.9",
		"lottery",
		"lottery:1,2,4",
		"weighted",
		"weighted:0.5,1,2.25",
		"phased:3,1@50/1,3@50",
		"adversary:0",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, name string) {
		s, err := ParseScheduler(name)
		if err != nil {
			return
		}
		text := s.String()
		again, err := ParseScheduler(text)
		if err != nil || !reflect.DeepEqual(again, s) {
			t.Fatalf("ParseScheduler(%q) = %+v, %v; want %+v (from %q)", text, again, err, s, name)
		}
		list, err := ParseSchedulerList(text)
		if err != nil || !reflect.DeepEqual(list, []SchedulerSpec{s}) {
			t.Fatalf("ParseSchedulerList(%q) = %+v, %v; want [%+v] (from %q)", text, list, err, s, name)
		}
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("marshal %+v: %v", s, err)
		}
		var decoded SchedulerSpec
		if err := json.Unmarshal(b, &decoded); err != nil || !reflect.DeepEqual(decoded, s) {
			t.Fatalf("JSON %s decodes to %+v, %v; want %+v (from %q)", b, decoded, err, s, name)
		}
	})
}
