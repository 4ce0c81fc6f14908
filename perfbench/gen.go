package main

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/trace"
)

// shape parameterizes the benchmark's trace generator. Threads, locks,
// variables and program sites are split evenly into Groups; a thread only
// touches its own group's locks, variables and sites. One group is the
// random-access shape (every thread shares everything); Threads/8 groups is
// the pool shape of a thread-pool server.
//
// Every event carries an explicit site from the fixed table, and the whole
// symbol universe is interned before the first event, so the header a
// session uploads has the same size however long the trace runs. (The
// internal/gen traces give every sync event a location of its own, which
// makes a 2M-event header megabytes long.)
type shape struct {
	Threads, Locks, Vars, Sites int
	Groups                      int
	// RaceProb is the share of accesses made without holding the lock that
	// guards the variable; every other access sits in a critical section
	// of its guard lock.
	RaceProb float64
	// MaxCS bounds the accesses per critical section (1..MaxCS, uniform).
	MaxCS int
}

// names is the preallocated symbol universe of a shape: the generator's hot
// loop does no string formatting.
type names struct {
	thread, lock, variable, site []string
}

func (sh shape) names() *names {
	n := &names{
		thread:   make([]string, sh.Threads),
		lock:     make([]string, sh.Locks),
		variable: make([]string, sh.Vars),
		site:     make([]string, sh.Sites),
	}
	for i := range n.thread {
		n.thread[i] = fmt.Sprintf("t%d", i)
	}
	for i := range n.lock {
		n.lock[i] = fmt.Sprintf("mu%d", i)
	}
	for i := range n.variable {
		n.variable[i] = fmt.Sprintf("obj%d.f", i)
	}
	for i := range n.site {
		n.site[i] = fmt.Sprintf("app/m%03d/file.go:%d", i/64, 10+7*(i%64))
	}
	return n
}

// generate builds a valid trace of at least events events (it stops after
// the critical section that crosses the count). Equal shapes and seeds give
// byte-identical traces.
func generate(sh shape, events int, seed uint64) *trace.Trace {
	n := sh.names()
	b := trace.NewBuilder()
	// Build on an empty builder returns the builder's own symbol table:
	// intern the whole universe up front so the header is length-independent.
	syms := b.Build().Symbols
	for _, s := range n.thread {
		syms.Thread(s)
	}
	for _, s := range n.lock {
		syms.Lock(s)
	}
	for _, s := range n.variable {
		syms.Var(s)
	}
	for _, s := range n.site {
		syms.Location(s)
	}

	tg, lg, vg, sg := sh.Threads/sh.Groups, sh.Locks/sh.Groups, sh.Vars/sh.Groups, sh.Sites/sh.Groups
	// Each group's sites: an acquire and a release site per lock, the rest
	// split evenly over the group's variables.
	perVar := (sg - 2*lg) / vg
	if tg < 1 || lg < 1 || vg < lg || perVar < 1 {
		panic(fmt.Sprintf("generate: shape %+v leaves a group without threads, locks, variables or sites", sh))
	}
	// A critical section averages (1+MaxCS)/2 accesses, so a step chooses
	// an unprotected access with the probability q that makes RaceProb the
	// share of accesses: q/(q+(1-q)m) = p.
	m := float64(1+sh.MaxCS) / 2
	q := sh.RaceProb * m / (1 - sh.RaceProb + sh.RaceProb*m)

	rng := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	access := func(t string, g, v int) {
		s := g*sg + 2*lg + v*perVar + rng.IntN(perVar)
		b.At(n.site[s])
		if rng.IntN(10) < 3 {
			b.Write(t, n.variable[g*vg+v])
		} else {
			b.Read(t, n.variable[g*vg+v])
		}
	}
	for b.Len() < events {
		ti := rng.IntN(sh.Threads)
		g := ti / tg
		if g >= sh.Groups { // threads beyond an even split join the last group
			g = sh.Groups - 1
		}
		t := n.thread[ti]
		if rng.Float64() < q {
			access(t, g, rng.IntN(vg))
			continue
		}
		// Variable v of a group is guarded by the group's lock v mod lg.
		l := rng.IntN(lg)
		lock := n.lock[g*lg+l]
		b.At(n.site[g*sg+2*l]).Acquire(t, lock)
		for k := 1 + rng.IntN(sh.MaxCS); k > 0; k-- {
			access(t, g, l+lg*rng.IntN(vg/lg))
		}
		b.At(n.site[g*sg+2*l+1]).Release(t, lock)
	}
	return b.Build()
}
