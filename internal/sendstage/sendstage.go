// Package sendstage buffers the sends of a parallel vertex pass, one
// buffer per worker, so the engine goroutine can replay them into its
// message log after the workers finish.
//
// Workers own contiguous, ascending chunks of a pass's vertices, so
// replaying worker 0's buffer, then worker 1's, and so on visits the
// sends in global vertex order, then send order — exactly the order a
// one-worker run produces. The log's contents, and every device write it
// triggers, are then the same at any worker count or GOMAXPROCS.
package sendstage

// Buffers holds one send buffer per worker. A buffer belongs to its
// worker during the pass and to the replaying goroutine after it.
type Buffers[T any] struct {
	bufs [][]T
}

// Reset readies one empty buffer per worker for the next pass. Buffers
// keep their capacity, so a run's passes reuse the same memory.
func (b *Buffers[T]) Reset(workers int) {
	for len(b.bufs) < workers {
		b.bufs = append(b.bufs, nil)
	}
	b.bufs = b.bufs[:workers]
	for w := range b.bufs {
		b.bufs[w] = b.bufs[w][:0]
	}
}

// Worker returns worker w's buffer for appending.
func (b *Buffers[T]) Worker(w int) *[]T { return &b.bufs[w] }

// Staged returns the buffers in replay order: worker 0's first.
func (b *Buffers[T]) Staged() [][]T { return b.bufs }

// Len returns the number of sends staged across all workers.
func (b *Buffers[T]) Len() int {
	n := 0
	for _, buf := range b.bufs {
		n += len(buf)
	}
	return n
}
