package sim

// FIFO is the explicit buffer between clocked blocks: a ring that grows to
// its high-water mark and then pushes and pops without allocating. The zero
// value is an empty FIFO.
//
// Re-slicing a Go slice from the front (q = q[1:]) leaks capacity, so every
// append after the backing array's end copies it; a simulator that queues
// one item per event then allocates per event. The ring reuses its slots.
type FIFO[T any] struct {
	buf  []T // len(buf) is zero or a power of two
	head int
	n    int
}

// Len returns the number of buffered items.
func (q *FIFO[T]) Len() int { return q.n }

// Push appends v at the tail.
func (q *FIFO[T]) Push(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

// Pop removes and returns the head item. It panics on an empty FIFO.
func (q *FIFO[T]) Pop() T {
	if q.n == 0 {
		panic("sim: Pop of empty FIFO")
	}
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}

// At returns a pointer to the i-th buffered item (0 is the head), valid
// until the next Push.
func (q *FIFO[T]) At(i int) *T {
	if i < 0 || i >= q.n {
		panic("sim: FIFO index out of range")
	}
	return &q.buf[(q.head+i)&(len(q.buf)-1)]
}

func (q *FIFO[T]) grow() {
	size := 2 * len(q.buf)
	if size == 0 {
		size = 8
	}
	buf := make([]T, size)
	for i := 0; i < q.n; i++ {
		buf[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
	}
	q.buf, q.head = buf, 0
}
