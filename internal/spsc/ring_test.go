package spsc

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
)

func TestCapacityRounding(t *testing.T) {
	cases := []struct{ in, want int }{
		{0, 1}, {1, 1}, {2, 2}, {3, 4}, {4, 4}, {5, 8}, {64, 64}, {65, 128},
	}
	for _, c := range cases {
		if got := New[int](c.in).Cap(); got != c.want {
			t.Errorf("New(%d).Cap() = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestNegativeCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New[int](-1)
}

// TestFullEmptyBoundary exercises the exact full and empty conditions
// single-threaded: fill to capacity, verify the next push fails, drain to
// empty, verify the next pop fails — across several fill/drain cycles so the
// cursors wrap the buffer many times. Capacity 1 is the mask-0 edge case.
func TestFullEmptyBoundary(t *testing.T) {
	for _, capacity := range []int{1, 4} {
		t.Run(fmt.Sprintf("cap=%d", capacity), func(t *testing.T) {
			testFullEmptyBoundary(t, New[int](capacity))
		})
	}
}

func testFullEmptyBoundary(t *testing.T, r *Ring[int]) {
	next := 0
	for cycle := 0; cycle < 100; cycle++ {
		for i := 0; i < r.Cap(); i++ {
			if !r.TryPush(next + i) {
				t.Fatalf("cycle %d: push %d rejected below capacity", cycle, i)
			}
		}
		if r.TryPush(-1) {
			t.Fatalf("cycle %d: push succeeded on a full ring", cycle)
		}
		if got := r.Len(); got != r.Cap() {
			t.Fatalf("cycle %d: Len = %d, want %d", cycle, got, r.Cap())
		}
		for i := 0; i < r.Cap(); i++ {
			v, ok := r.TryPop()
			if !ok || v != next+i {
				t.Fatalf("cycle %d: pop %d = (%d, %v), want (%d, true)", cycle, i, v, ok, next+i)
			}
		}
		if _, ok := r.TryPop(); ok {
			t.Fatalf("cycle %d: pop succeeded on an empty ring", cycle)
		}
		if !r.Empty() {
			t.Fatalf("cycle %d: Empty() false after drain", cycle)
		}
		next += r.Cap()
	}
}

// TestConcurrentFIFO hammers a small ring from one producer and one consumer
// and checks every element arrives exactly once, in order. The tiny
// capacities force constant wrap-around and full/empty boundary hits under
// -race; at capacity 1 every push fills the ring and every pop empties it.
func TestConcurrentFIFO(t *testing.T) {
	for _, capacity := range []int{1, 8} {
		t.Run(fmt.Sprintf("cap=%d", capacity), func(t *testing.T) {
			testConcurrentFIFO(t, New[uint64](capacity))
		})
	}
}

func testConcurrentFIFO(t *testing.T, r *Ring[uint64]) {
	const n = 200_000
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := uint64(0); i < n; i++ {
			for !r.TryPush(i) {
				runtime.Gosched()
			}
		}
		r.Close()
	}()
	var got uint64
	for {
		v, ok := r.TryPop()
		if !ok {
			if r.Drained() {
				break
			}
			runtime.Gosched()
			continue
		}
		if v != got {
			t.Fatalf("out of order: got %d, want %d", v, got)
		}
		got++
	}
	wg.Wait()
	if got != n {
		t.Fatalf("received %d elements, want %d", got, n)
	}
}

// TestConcurrentClose races Close against an active consumer: the producer
// pushes a batch, closes mid-stream, and the consumer must observe every
// pushed element and then Drained, never hanging and never dropping.
func TestConcurrentClose(t *testing.T) {
	for iter := 0; iter < 200; iter++ {
		r := New[int](4)
		const n = 1000
		pushed := make(chan int, 1)
		go func() {
			count := 0
			for i := 0; i < n; i++ {
				if !r.TryPush(i) {
					break // full: simulate a producer giving up mid-stream
				}
				count++
			}
			r.Close()
			pushed <- count
		}()
		received := 0
		for !r.Drained() {
			if _, ok := r.TryPop(); ok {
				received++
			} else {
				runtime.Gosched()
			}
		}
		if want := <-pushed; received != want {
			t.Fatalf("iter %d: received %d, producer pushed %d", iter, received, want)
		}
	}
}

// TestPushAfterClosePanics pins the producer-side misuse check.
func TestPushAfterClosePanics(t *testing.T) {
	r := New[int](2)
	r.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("TryPush after Close did not panic")
		}
	}()
	r.TryPush(1)
}

// TestPointerElementsReleased checks popped slots are zeroed so the ring
// doesn't pin dead pointers.
func TestPointerElementsReleased(t *testing.T) {
	r := New[*int](2)
	v := new(int)
	r.TryPush(v)
	r.TryPop()
	for _, p := range r.buf {
		if p != nil {
			t.Fatal("popped slot still holds a pointer")
		}
	}
}

func BenchmarkRingPushPop(b *testing.B) {
	r := New[uint64](64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.TryPush(uint64(i))
		r.TryPop()
	}
}

func BenchmarkRingConcurrent(b *testing.B) {
	r := New[uint64](64)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			if _, ok := r.TryPop(); !ok {
				if r.Drained() {
					return
				}
				runtime.Gosched()
			}
		}
	}()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for !r.TryPush(uint64(i)) {
			runtime.Gosched()
		}
	}
	r.Close()
	<-done
}
