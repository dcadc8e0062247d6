package core

import (
	"reflect"
	"testing"

	"repro/internal/maxflow"
)

// TestResultRetainsNoWorkspace: a Result outlives the call that made it —
// every pipeline keeps one for Coarsen — so it may hold what Coarsen reads
// (the Analysis, the options, the stage assignment) and what it returns,
// never the call's workspace, its flow network, a cut's live set or
// packCut's positions. The check walks every type a Result can reach,
// stopping at the Analysis, which all calls share.
func TestResultRetainsNoWorkspace(t *testing.T) {
	forbidden := map[reflect.Type]bool{}
	for _, v := range []any{workspace{}, partitionState{}, cutInfo{}, pos{}, reach{}, maxflow.Network{}} {
		forbidden[reflect.TypeOf(v)] = true
	}
	analysis := reflect.TypeOf(Analysis{})
	seen := map[reflect.Type]bool{}
	var walk func(ty reflect.Type, path string)
	walk = func(ty reflect.Type, path string) {
		if seen[ty] || ty == analysis {
			return
		}
		seen[ty] = true
		if forbidden[ty] {
			t.Errorf("a Result reaches %v through %s", ty, path)
		}
		switch ty.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Array, reflect.Chan:
			walk(ty.Elem(), path+"[]")
		case reflect.Map:
			walk(ty.Key(), path+"{key}")
			walk(ty.Elem(), path+"{}")
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				walk(ty.Field(i).Type, path+"."+ty.Field(i).Name)
			}
		}
	}
	walk(reflect.TypeOf(Result{}), "Result")
	if !seen[reflect.TypeOf(Options{})] {
		t.Error("the walk never reached the Result's options; it checks nothing")
	}
}
