package sched

// ring is a double-ended queue of items over a circular buffer that doubles
// when full. A drained ring keeps its storage, so a ready list in steady
// state pushes and pops without allocating. Popped slots are cleared so the
// buffer never pins a finished run, its state or its piece buffers.
type ring struct {
	buf  []item
	head int // index of the front item
	n    int // queued items
}

func (q *ring) len() int { return q.n }

func (q *ring) pushBack(it item) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)%len(q.buf)] = it
	q.n++
}

// popFront removes and returns the oldest item; the ring must be non-empty.
func (q *ring) popFront() item {
	it := q.buf[q.head]
	q.buf[q.head] = item{}
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	return it
}

// popBack removes and returns the newest item; the ring must be non-empty.
func (q *ring) popBack() item {
	i := (q.head + q.n - 1) % len(q.buf)
	it := q.buf[i]
	q.buf[i] = item{}
	q.n--
	return it
}

func (q *ring) grow() {
	size := 2 * len(q.buf)
	if size == 0 {
		size = 8
	}
	buf := make([]item, size)
	for i := 0; i < q.n; i++ {
		buf[i] = q.buf[(q.head+i)%len(q.buf)]
	}
	q.buf, q.head = buf, 0
}
