package sendstage

import (
	"reflect"
	"testing"
)

func TestBuffersReplayInWorkerOrder(t *testing.T) {
	var b Buffers[int]
	b.Reset(3)
	// Workers finish in any order; replay order is worker order.
	*b.Worker(2) = append(*b.Worker(2), 5, 6)
	*b.Worker(0) = append(*b.Worker(0), 1, 2)
	*b.Worker(1) = append(*b.Worker(1), 3, 4)
	if got, want := b.Staged(), [][]int{{1, 2}, {3, 4}, {5, 6}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Staged = %v, want %v", got, want)
	}
	if b.Len() != 6 {
		t.Fatalf("Len = %d, want 6", b.Len())
	}

	// A smaller pass empties the buffers and keeps their memory.
	before := &(*b.Worker(0))[:1][0]
	b.Reset(2)
	if b.Len() != 0 || len(b.Staged()) != 2 {
		t.Fatalf("after Reset(2): Len %d, %d buffers", b.Len(), len(b.Staged()))
	}
	*b.Worker(0) = append(*b.Worker(0), 9)
	if &(*b.Worker(0))[0] != before {
		t.Fatal("Reset dropped the buffer's memory")
	}
}
