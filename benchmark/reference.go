package main

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The reference is a fixed kernel, timed next to the workload, that
// tells how fast the shared host runs at that moment. Neighbours on the
// host slow every process for minutes at a time; a workload sample
// divided by the reference measured beside it keeps the program's own
// cost and drops most of the host's. Each of the procs goroutines of a
// slice runs three parts of roughly equal time on the machine README.md
// describes: branchy integer work, a pointer chase that stays in the
// core's L2 cache, and one that misses it, so the reference slows with
// the host's CPU, cache and memory contention as the pipeline does.
const (
	refComputeSteps = 8_000_000
	refNearWords    = 128 << 10 // 512 KB per goroutine: L2-resident
	refNearSteps    = 5_500_000
	refFarWords     = 2 << 20 // 8 MB per goroutine: misses L2
	refFarSteps     = 360_000
	// refNominal is what a normalised sample is scaled to: the time
	// one reference slice takes on an undisturbed host, about 100 ms
	// on the 2-vCPU machine README.md describes.
	refNominal = 100 * time.Millisecond
	// refEvery is the most a batch workload runs between two slices,
	// and serveEpoch the stretch of serve-mixed's schedule between two;
	// the host's speed holds for seconds at a time. An epoch is long
	// against a job (tens of ms), so few jobs see its end.
	refEvery   = time.Second
	serveEpoch = 2 * time.Second
)

// reference holds the pointer-chase tables. They live outside the Go
// heap, so they neither move the garbage collector's pacing nor count
// as the workload's allocation; their resident size is taken off the
// measuring child's peak memory.
type reference struct {
	mem       []byte
	near, far [procs][]uint32
}

// newReference maps and fills the tables, each a single random cycle.
func newReference() (*reference, error) {
	words := procs * (refNearWords + refFarWords)
	mem, err := syscall.Mmap(-1, 0, 4*words, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		return nil, fmt.Errorf("mapping the reference tables: %w", err)
	}
	all := unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), words)
	ref := &reference{mem: mem}
	rng := rand.New(rand.NewPCG(0x7ef, 0x7ef))
	for g := 0; g < procs; g++ {
		ref.near[g], all = cycle(all[:refNearWords], rng), all[refNearWords:]
		ref.far[g], all = cycle(all[:refFarWords], rng), all[refFarWords:]
	}
	return ref, nil
}

// cycle fills next with one random cycle through all its indices
// (Sattolo's shuffle), so a chase visits every word before repeating.
func cycle(next []uint32, rng *rand.Rand) []uint32 {
	for i := range next {
		next[i] = uint32(i)
	}
	for i := len(next) - 1; i > 0; i-- {
		k := rng.IntN(i)
		next[i], next[k] = next[k], next[i]
	}
	return next
}

// residentMB is the memory the tables hold, all of it touched.
func (ref *reference) residentMB() float64 { return float64(len(ref.mem)) / (1 << 20) }

func (ref *reference) close() error { return syscall.Munmap(ref.mem) }

// slice runs the kernel once on procs goroutines and returns its wall
// time.
func (ref *reference) slice() time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	sums := make([]uint64, procs)
	for g := 0; g < procs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sums[g] = compute(refComputeSteps) + chase(ref.near[g], refNearSteps) + chase(ref.far[g], refFarSteps)
		}(g)
	}
	wg.Wait()
	d := time.Since(start)
	refSink = sums[0] ^ sums[procs-1]
	return d
}

// slices runs n slices, at least one, and returns their mean time.
func (ref *reference) slices(n int) time.Duration {
	n = max(n, 1)
	var sum time.Duration
	for i := 0; i < n; i++ {
		sum += ref.slice()
	}
	return sum / time.Duration(n)
}

// refSink keeps the kernel's results live, so the compiler cannot drop
// the work.
var refSink uint64

// compute is a xorshift generator driving a data-dependent branch.
func compute(steps int) uint64 {
	x, acc := uint64(0x9E3779B97F4A7C15), uint64(0)
	for i := 0; i < steps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if x&3 == 0 {
			acc += x
		} else {
			acc ^= x >> 3
		}
	}
	return acc
}

// chase follows next for steps hops; every load depends on the last.
func chase(next []uint32, steps int) uint64 {
	i, acc := uint32(0), uint64(0)
	for s := 0; s < steps; s++ {
		i = next[i]
		acc += uint64(i)
	}
	return acc
}

// normalised scales a sample taken while one reference slice took ref
// to what it would read when a slice takes refNominal.
func normalised(sample, ref time.Duration) float64 {
	return ms(sample) * float64(refNominal) / float64(ref)
}
