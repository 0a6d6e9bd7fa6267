package core

import (
	"reflect"
	"testing"

	"vmp/internal/cache"
	"vmp/internal/fault"
)

// addFields adds every integer field of src into the same field of dst
// (a pointer to a struct of the same type).
func addFields(t *testing.T, dst, src any) {
	t.Helper()
	d, s := reflect.ValueOf(dst).Elem(), reflect.ValueOf(src)
	for i := 0; i < s.NumField(); i++ {
		f := d.Field(i)
		switch f.Kind() {
		case reflect.Uint64:
			f.SetUint(f.Uint() + s.Field(i).Uint())
		case reflect.Int64:
			f.SetInt(f.Int() + s.Field(i).Int())
		default:
			t.Fatalf("%s.%s: unexpected kind %v", s.Type(), s.Type().Field(i).Name, f.Kind())
		}
	}
}

// TestTotalStatsSumsEveryField: TotalStats must equal the field-by-field
// sum of every board's Stats and Cache.Stats. The fields are found by
// reflection, so a counter added later without its sum fails here. The
// run has write-back retries, the field TotalStats once left out.
func TestTotalStatsSumsEveryField(t *testing.T) {
	m := runTorture(t, 15, tortureConfig{
		procs: 4, pageSize: 256, cacheKB: 32, fifoDepth: 4, opsPerCPU: 150, pages: 8, aliases: 3,
		faults: &fault.Spec{
			AbortRate: 0.15, CopyErrRate: 0.1, FIFOCap: 2, StormRate: 0.2, StormMax: 4, FlipRate: 0.05,
		},
	})
	var wantC cache.Stats
	var wantB BoardStats
	for _, b := range m.Boards {
		addFields(t, &wantC, b.Cache.Stats())
		addFields(t, &wantB, b.Stats())
	}
	if wantB.WriteBackRetries == 0 {
		t.Fatal("the run had no write-back retries; the test would not cover that sum")
	}
	gotC, gotB := m.TotalStats()
	for _, pair := range [][2]any{{gotC, wantC}, {gotB, wantB}} {
		got, want := reflect.ValueOf(pair[0]), reflect.ValueOf(pair[1])
		for i := 0; i < got.NumField(); i++ {
			if g, w := got.Field(i).Interface(), want.Field(i).Interface(); g != w {
				t.Errorf("TotalStats %s.%s = %v, boards sum to %v",
					got.Type().Name(), got.Type().Field(i).Name, g, w)
			}
		}
	}
}
