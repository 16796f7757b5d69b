package detutil

import (
	"reflect"
	"testing"
)

func TestSortedKeys(t *testing.T) {
	m := map[uint64]string{9: "i", 1: "a", 4: "d", 7: "g"}
	for trial := 0; trial < 10; trial++ {
		got := SortedKeys(m)
		if want := []uint64{1, 4, 7, 9}; !reflect.DeepEqual(got, want) {
			t.Fatalf("SortedKeys = %v, want %v", got, want)
		}
	}
	if got := SortedKeys(map[string]int(nil)); len(got) != 0 {
		t.Fatalf("SortedKeys(nil) = %v", got)
	}
}
