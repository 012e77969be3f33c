package analysis

import "testing"

func TestLockOrder(t *testing.T) {
	suite := []*Analyzer{LockOrder()}

	t.Run("flags ABBA inversion across methods", func(t *testing.T) {
		diags := runOn(t, suite, map[string]string{"a.go": `package p

import "sync"

type Server struct{ mu sync.Mutex }
type Store struct{ mu sync.Mutex }

func f(s *Server, st *Store) {
	s.mu.Lock()
	st.mu.Lock()
	st.mu.Unlock()
	s.mu.Unlock()
}

func g(s *Server, st *Store) {
	st.mu.Lock()
	s.mu.Lock()
	s.mu.Unlock()
	st.mu.Unlock()
}
`})
		wantDiags(t, diags, "lock order inversion: Server.mu acquired while holding Store.mu")
	})

	t.Run("flags inversion through a deferred unlock", func(t *testing.T) {
		diags := runOn(t, suite, map[string]string{"a.go": `package p

import "sync"

type A struct{ mu sync.Mutex }
type B struct{ mu sync.Mutex }

func one(a *A, b *B) {
	a.mu.Lock()
	defer a.mu.Unlock()
	b.mu.Lock()
	b.mu.Unlock()
}

func other(a *A, b *B) {
	b.mu.Lock()
	defer b.mu.Unlock()
	a.mu.Lock()
	a.mu.Unlock()
}
`})
		wantDiags(t, diags, "lock order inversion: A.mu acquired while holding B.mu")
	})

	t.Run("explicit unlock releases before the next acquire", func(t *testing.T) {
		diags := runOn(t, suite, map[string]string{"a.go": `package p

import "sync"

type A struct{ mu sync.Mutex }
type B struct{ mu sync.Mutex }

func one(a *A, b *B) {
	a.mu.Lock()
	a.mu.Unlock()
	b.mu.Lock()
	b.mu.Unlock()
}

func other(a *A, b *B) {
	b.mu.Lock()
	b.mu.Unlock()
	a.mu.Lock()
	a.mu.Unlock()
}
`})
		wantDiags(t, diags)
	})

	t.Run("goroutine bodies start with an empty held set", func(t *testing.T) {
		diags := runOn(t, suite, map[string]string{"a.go": `package p

import "sync"

type A struct{ mu sync.Mutex }
type B struct{ mu sync.Mutex }

func one(a *A, b *B) {
	a.mu.Lock()
	defer a.mu.Unlock()
	go func() {
		b.mu.Lock()
		b.mu.Unlock()
	}()
}

func other(a *A, b *B) {
	b.mu.Lock()
	defer b.mu.Unlock()
	a.mu.Lock()
	a.mu.Unlock()
}
`})
		wantDiags(t, diags)
	})

	t.Run("branch acquisitions do not leak past the branch", func(t *testing.T) {
		diags := runOn(t, suite, map[string]string{"a.go": `package p

import "sync"

type A struct{ mu sync.Mutex }
type B struct{ mu sync.Mutex }

func one(a *A, b *B, cond bool) {
	if cond {
		a.mu.Lock()
		a.mu.Unlock()
	}
	b.mu.Lock()
	b.mu.Unlock()
}

func other(a *A, b *B) {
	b.mu.Lock()
	b.mu.Unlock()
	a.mu.Lock()
	a.mu.Unlock()
}
`})
		wantDiags(t, diags)
	})

	t.Run("consistent nesting order is clean", func(t *testing.T) {
		diags := runOn(t, suite, map[string]string{"a.go": `package p

import "sync"

type Registry struct{ mu sync.Mutex }
type Histogram struct{ mu sync.Mutex }

func (r *Registry) visit(h *Histogram) {
	r.mu.Lock()
	defer r.mu.Unlock()
	h.mu.Lock()
	defer h.mu.Unlock()
}

func (r *Registry) again(h *Histogram) {
	r.mu.Lock()
	h.mu.Lock()
	h.mu.Unlock()
	r.mu.Unlock()
}
`})
		wantDiags(t, diags)
	})
}

func TestChanLeak(t *testing.T) {
	suite := []*Analyzer{ChanLeak()}

	t.Run("flags early return between launch and receive", func(t *testing.T) {
		diags := runOn(t, suite, map[string]string{"a.go": `package p

func f(setup func() error, slow func() int) (int, error) {
	ch := make(chan int)
	go func() { ch <- slow() }()
	if err := setup(); err != nil {
		return 0, err
	}
	return <-ch, nil
}
`})
		wantDiags(t, diags, "goroutine sends on ch but the return at")
	})

	t.Run("flags a send nobody ever receives", func(t *testing.T) {
		diags := runOn(t, suite, map[string]string{"a.go": `package p

func f(slow func() int) {
	done := make(chan int)
	go func() { done <- slow() }()
}
`})
		wantDiags(t, diags, "goroutine sends on done but this function never receives")
	})

	t.Run("buffered channel absorbs the send", func(t *testing.T) {
		diags := runOn(t, suite, map[string]string{"a.go": `package p

func f(setup func() error, slow func() int) (int, error) {
	ch := make(chan int, 1)
	go func() { ch <- slow() }()
	if err := setup(); err != nil {
		return 0, err
	}
	return <-ch, nil
}
`})
		wantDiags(t, diags)
	})

	t.Run("receive before any return is clean", func(t *testing.T) {
		diags := runOn(t, suite, map[string]string{"a.go": `package p

func f(check func(int) error, slow func() int) (int, error) {
	ch := make(chan int)
	go func() { ch <- slow() }()
	v := <-ch
	if err := check(v); err != nil {
		return 0, err
	}
	return v, nil
}
`})
		wantDiags(t, diags)
	})

	t.Run("escaping channel is someone else's contract", func(t *testing.T) {
		diags := runOn(t, suite, map[string]string{"a.go": `package p

func hand(ch chan int) {}

func f(setup func() error, slow func() int) error {
	ch := make(chan int)
	go func() { ch <- slow() }()
	hand(ch)
	if err := setup(); err != nil {
		return err
	}
	return nil
}
`})
		wantDiags(t, diags)
	})

	t.Run("select with default cannot park", func(t *testing.T) {
		diags := runOn(t, suite, map[string]string{"a.go": `package p

func f(setup func() error, slow func() int) error {
	ch := make(chan int)
	go func() {
		select {
		case ch <- slow():
		default:
		}
	}()
	if err := setup(); err != nil {
		return err
	}
	<-ch
	return nil
}
`})
		wantDiags(t, diags)
	})
}

func TestSharedNoEscape(t *testing.T) {
	suite := []*Analyzer{SharedNoEscape()}

	t.Run("flags captured scalar accumulation", func(t *testing.T) {
		diags := runOn(t, suite, map[string]string{"a.go": `package p

import "duet/internal/tensor"

func sum(data []float32) float32 {
	var total float32
	tensor.ParallelForChunked(len(data), 2, 64, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			total += data[i]
		}
	})
	return total
}
`})
		wantDiags(t, diags, "parallel body assigns captured variable total")
	})

	t.Run("flags loop-invariant index writes", func(t *testing.T) {
		diags := runOn(t, suite, map[string]string{"a.go": `package p

import "duet/internal/tensor"

func fill(out []float32, j int) {
	tensor.ParallelForChunked(len(out), 2, 64, func(lo, hi int) {
		out[0] = 1
		out[j] = 2
	})
}
`})
		wantDiags(t, diags,
			"parallel body writes out at a loop-invariant index",
			"parallel body writes out at a loop-invariant index",
		)
	})

	t.Run("flags captured append", func(t *testing.T) {
		diags := runOn(t, suite, map[string]string{"a.go": `package p

import "duet/internal/tensor"

func gather(data []float32) []float32 {
	var hits []float32
	tensor.ParallelForChunked(len(data), 2, 64, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			hits = append(hits, data[i])
		}
	})
	return hits
}
`})
		wantDiags(t, diags, "parallel body assigns captured variable hits")
	})

	t.Run("index-disjoint writes are the sanctioned pattern", func(t *testing.T) {
		diags := runOn(t, suite, map[string]string{"a.go": `package p

import "duet/internal/tensor"

type T struct{ data []float32 }

func (t *T) apply(f func(float32) float32) {
	tensor.ParallelForChunked(len(t.data), 2, 64, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			t.data[i] = f(t.data[i])
		}
	})
}

func chunked(dst, src []float32) {
	tensor.ParallelForChunked(len(dst), 2, 64, func(lo, hi int) {
		base := lo * 2
		for i := lo; i < hi; i++ {
			dst[i] = src[i] + float32(base)
		}
	})
}
`})
		wantDiags(t, diags)
	})

	t.Run("bare calls inside package tensor are covered", func(t *testing.T) {
		diags := runOn(t, suite, map[string]string{"a.go": `package tensor

func ParallelForChunked(n, parts, grain int, body func(lo, hi int)) {}

func fanOut(n int, ns float64) (parts, grain int) { return 2, n / 8 }

func bad(data []float32) float32 {
	var total float32
	parts, grain := fanOut(len(data), float64(len(data)))
	ParallelForChunked(len(data), parts, grain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			total += data[i]
		}
	})
	return total
}
`})
		wantDiags(t, diags, "parallel body assigns captured variable total")
	})

	t.Run("step-loop item bodies inside package tensor are covered", func(t *testing.T) {
		diags := runOn(t, suite, map[string]string{"a.go": `package tensor

func stepLoop(steps, parts int, body func(step, part int)) {}

func bad(h []float32, per int) int {
	last := 0
	stepLoop(8, 2, func(step, part int) {
		last = step
		h[per] = 1
		u0 := part * per
		h[u0] = float32(step)
	})
	return last
}
`})
		wantDiags(t, diags,
			"parallel body assigns captured variable last",
			"parallel body writes h at a loop-invariant index",
		)
	})

	t.Run("files without the tensor import are skipped", func(t *testing.T) {
		diags := runOn(t, suite, map[string]string{"a.go": `package p

type fake struct{}

func (fake) ParallelForChunked(n, parts, grain int, body func(lo, hi int)) {}

func ok(data []float32) float32 {
	var total float32
	fake{}.ParallelForChunked(len(data), 2, 64, func(lo, hi int) { total = 1 })
	return total
}
`})
		wantDiags(t, diags)
	})
}
