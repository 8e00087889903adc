package main

import (
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// This box has more than one speed. Ten runs of identical code, one after
// another, read 24 and 35 ops/s on explore-wide, 0.075 and 0.134 ms on
// serve-mixed's cached path, and every workload moved together: for minutes
// at a time the machine is 20–30 % faster or slower. Arithmetic does not
// notice (a register-only loop spread 3 % over runs whose passes spread
// 16–20 %); code that misses the cache does, and that is what the engines
// do. No statistic inside a run removes a state that outlasts the run, and
// with two or three of ten runs in the other state the interquartile spread
// of identical code reached 20–33 % of the median.
//
// So every run also times a reference kernel after each pass — benchmark-
// owned code of the engines' kind, nothing of the program under test in it
// or under it — and reports its timings at the reference machine speed:
// divided by (the run's reference time ÷ referenceNominalMS). The figures as
// timed and the divisor are printed beside the reported ones.

const (
	// referenceNominalMS is the reference kernel's steady time on this box
	// in its usual state. It only anchors the unit, so that a reported
	// millisecond is about a millisecond here; comparisons between commits
	// do not depend on it.
	referenceNominalMS = 50.0

	referenceTableBits = 20      // 2^20 slots of 8 bytes: well past the caches
	referenceArena     = 4 << 20 // bytes of key storage
	referenceSteps     = 200_000
)

// referenceMem is one goroutine's working memory for the kernel: an open-
// addressing table and an arena keys are copied into. It is mapped outside
// the Go heap and reused by every call, so the kernel neither allocates nor
// is collected: what the program under test keeps alive cannot change what
// the kernel costs, and the kernel cannot change when the program collects.
type referenceMem struct {
	table []uint64
	arena []byte
}

var referenceMems []*referenceMem

func newReferenceMem() (*referenceMem, error) {
	const tableBytes = 8 << referenceTableBits
	raw, err := syscall.Mmap(-1, 0, tableBytes+referenceArena, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	m := &referenceMem{
		table: unsafe.Slice((*uint64)(unsafe.Pointer(&raw[0])), 1<<referenceTableBits),
		arena: raw[tableBytes:],
	}
	m.kernel(0) // touch every page once, outside any timing
	return m, nil
}

// kernel is a fixed piece of work of the kind the engines do: format a key,
// hash it, look it up in a table, and on a miss store it and keep its bytes.
// Some 70 % of the steps miss.
func (m *referenceMem) kernel(seed uint64) uint64 {
	clear(m.table)
	const mask = 1<<referenceTableBits - 1
	pos := 0
	x, sum := seed, uint64(0)
	for i := 0; i < referenceSteps; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		key := x>>46 | 1<<20 // 18 random bits; never 0, which marks a free slot
		text := strconv.AppendUint(m.arena[pos:pos], key, 10)
		h := uint64(14695981039346656037)
		for _, c := range text {
			h = (h ^ uint64(c)) * 1099511628211
		}
		slot := h & mask
		for m.table[slot] != 0 && m.table[slot] != key {
			slot = (slot + 1) & mask
		}
		if m.table[slot] == 0 {
			m.table[slot] = key
			if pos += len(text); pos > referenceArena-32 {
				pos = 0
			}
		}
		sum += slot
	}
	return sum
}

// referenceRun times the kernel once alone and once on every processor at
// the same time, as the engines run both ways, and returns the sum in
// milliseconds.
func referenceRun() (float64, error) {
	for len(referenceMems) < runtime.GOMAXPROCS(0) {
		m, err := newReferenceMem()
		if err != nil {
			return 0, err
		}
		referenceMems = append(referenceMems, m)
	}
	start := time.Now()
	referenceMems[0].kernel(1)
	var wg sync.WaitGroup
	for g, m := range referenceMems {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m.kernel(uint64(g) + 2)
		}()
	}
	wg.Wait()
	return ms(time.Since(start)), nil
}
