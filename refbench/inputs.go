package main

import (
	"math/rand/v2"
	"slices"
)

// The reference scenario. The graph and the oracle are fixed; only the
// request and update streams come from --seed.
const (
	graphNodes = 20000 // LiveJournal profile scaled to 20k nodes
	graphSeed  = 1
	oracleSeed = 1

	pointPairs  = 4096 // distinct uniform (s, t) pairs, cycled
	pointRound  = 128  // queries per round of one caller
	pointVerify = 256  // pairs whose distance is checked against BFS

	rankTrace     = 128 // rank inputs of the traced sweep
	rankTargets   = 100 // candidates per one-to-many request
	rankBatchesPK = 4   // one-to-many requests per K-paths request
	rankK         = 4

	churnInsert  = 10 // triadic closures per update batch (and as many deletions)
	churnPerSec  = 1  // update batches per second of --seconds
	churnWarm    = 2  // batches applied before timing starts
	probeSources = 16
	probeTargets = 4
	readerRound  = 64
)

// Stream ids keep each input stream independent of the others, so
// changing one workload's inputs leaves the rest untouched.
const (
	streamPoint = iota + 1
	streamRank
	streamChurn
	streamProbe
)

func newRand(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15^stream))
}

type pair struct{ s, t uint32 }

// pointInputs draws uniform pairs with s != t.
func pointInputs(seed uint64, n int) []pair {
	r := newRand(seed, streamPoint)
	ps := make([]pair, pointPairs)
	for i := range ps {
		s := uint32(r.IntN(n))
		t := uint32(r.IntN(n - 1))
		if t >= s {
			t++
		}
		ps[i] = pair{s, t}
	}
	return ps
}

// rankInput is one source's ranking request: candidates from its 2–3
// hop neighbourhood with their BFS distances, and the target of its
// K-paths request, a node at distance 2.
type rankInput struct {
	s     uint32
	ts    []uint32
	dists []uint32 // BFS distance of each candidate
	kt    uint32   // K-paths target
	kdist uint32
}

// rankGen draws rank inputs one source at a time. Every request goes
// to a fresh source, so a run samples the sources' cost distribution
// instead of replaying a few heavy sources; the BFS each draw runs is
// also the reference its answers are checked against.
type rankGen struct {
	r     *rand.Rand
	ref   *refGraph
	dist  []uint32
	queue []uint32
}

func newRankGen(seed uint64, ref *refGraph) *rankGen {
	return &rankGen{r: newRand(seed, streamRank), ref: ref,
		dist: make([]uint32, ref.n()), queue: make([]uint32, 0, ref.n())}
}

// next draws a uniform source with at least rankTargets nodes at
// distance 2 or 3, a uniform sample of those nodes as candidates, and a
// uniform node at distance 2 as the K-paths target.
func (g *rankGen) next() rankInput {
	for {
		s := uint32(g.r.IntN(g.ref.n()))
		g.ref.bfs(s, g.dist, g.queue)
		var ring, two []uint32
		for v, d := range g.dist {
			switch d {
			case 2:
				two = append(two, uint32(v))
				ring = append(ring, uint32(v))
			case 3:
				ring = append(ring, uint32(v))
			}
		}
		if len(ring) < rankTargets || len(two) == 0 {
			continue
		}
		for i := 0; i < rankTargets; i++ { // partial Fisher–Yates
			j := i + g.r.IntN(len(ring)-i)
			ring[i], ring[j] = ring[j], ring[i]
		}
		in := rankInput{s: s, ts: slices.Clone(ring[:rankTargets]), dists: make([]uint32, rankTargets)}
		for i, t := range in.ts {
			in.dists[i] = g.dist[t]
		}
		in.kt, in.kdist = two[g.r.IntN(len(two))], 2
		return in
	}
}

// rankInputs returns the first n draws of the rank stream.
func rankInputs(seed uint64, ref *refGraph, n int) []rankInput {
	g := newRankGen(seed, ref)
	out := make([]rankInput, n)
	for i := range out {
		out[i] = g.next()
	}
	return out
}

// probeInputs draws the fixed probe set that writer and replica must
// answer identically at every epoch.
func probeInputs(seed uint64, n int) []pair {
	r := newRand(seed, streamProbe)
	ps := make([]pair, 0, probeSources*probeTargets)
	for i := 0; i < probeSources; i++ {
		s := uint32(r.IntN(n))
		for j := 0; j < probeTargets; j++ {
			ps = append(ps, pair{s, uint32(r.IntN(n))})
		}
	}
	return ps
}

// churnBatch draws one update: churnInsert friend-of-friend edges
// (u–v–w with u, w not yet adjacent) and as many deletions of existing
// edges whose endpoints both keep degree >= 2, all distinct.
func churnBatch(r *rand.Rand, ref *refGraph) (ins, del [][2]uint32) {
	ref.mu.RLock()
	defer ref.mu.RUnlock()
	n := ref.n()
	used := make(map[uint64]bool)
	touched := make(map[uint32]int) // degree change so far per node
	for len(ins) < churnInsert {
		u := uint32(r.IntN(n))
		if len(ref.adj[u]) == 0 {
			continue
		}
		v := ref.adj[u][r.IntN(len(ref.adj[u]))]
		w := ref.adj[v][r.IntN(len(ref.adj[v]))]
		k := edgeKey(u, w)
		if w == u || ref.has(u, w) || used[k] {
			continue
		}
		used[k] = true
		ins = append(ins, [2]uint32{u, w})
	}
	for len(del) < churnInsert {
		u := uint32(r.IntN(n))
		if len(ref.adj[u]) == 0 {
			continue
		}
		v := ref.adj[u][r.IntN(len(ref.adj[u]))]
		k := edgeKey(u, v)
		if used[k] || len(ref.adj[u])+touched[u] < 3 || len(ref.adj[v])+touched[v] < 3 {
			continue
		}
		used[k] = true
		touched[u]--
		touched[v]--
		del = append(del, [2]uint32{u, v})
	}
	return ins, del
}
