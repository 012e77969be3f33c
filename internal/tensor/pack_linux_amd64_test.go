//go:build !purego

package tensor

import (
	"math"
	"math/rand"
	"syscall"
	"testing"
	"unsafe"
)

// TestPackRowsGuardPages runs packRows on sources that fill one page
// exactly, between two pages mapped with no access: a left-fringe run whose
// first active element is the page's first float, and a run whose last
// active element is the page's last float. The lanes before lo then lie in
// the page before and, at stride 2, most of the 16 floats the lanes span lie
// in the page after, so an access to a masked-off element faults and kills
// the test binary instead of going unnoticed.
func TestPackRowsGuardPages(t *testing.T) {
	if tier < tierAVX2 {
		t.Skip("no AVX2: assembly kernels not in use")
	}
	page := syscall.Getpagesize()
	mem, err := syscall.Mmap(-1, 0, 3*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	defer syscall.Munmap(mem)
	if err := syscall.Mprotect(mem[:page], syscall.PROT_NONE); err != nil {
		t.Fatal(err)
	}
	if err := syscall.Mprotect(mem[2*page:], syscall.PROT_NONE); err != nil {
		t.Fatal(err)
	}
	src := unsafe.Slice((*float32)(unsafe.Pointer(&mem[page])), page/4)
	rng := rand.New(rand.NewSource(23))
	for i := range src {
		src[i] = rng.Float32()*2 - 1
	}
	got, want := make([]float32, nr), make([]float32, nr)
	for stride := 1; stride <= 2; stride++ {
		for run := 1; run <= nr; run++ {
			for lo := 0; lo < run; lo++ {
				for hi := lo + 1; hi <= run; hi++ {
					for _, base := range []int{-lo * stride, len(src) - 1 - (hi-1)*stride} {
						packRowsGo(want, 0, 0, src, base, 0, 0, 1, 1, stride, lo, hi, run)
						packRows(got, 0, 0, src, base, 0, 0, 1, 1, stride, lo, hi, run)
						for s := 0; s < run; s++ {
							if math.Float32bits(got[s]) != math.Float32bits(want[s]) {
								t.Fatalf("stride %d, run %d, lanes [%d, %d), base %d: lane %d = %g, want %g", stride, run, lo, hi, base, s, got[s], want[s])
							}
						}
					}
				}
			}
		}
	}
}
