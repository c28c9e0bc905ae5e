package main

import (
	"fmt"
	"slices"
	"sync"
)

// This file is the benchmark's independent reference: its own copy of
// the edge list, a plain BFS over it, and the answer checks. It shares
// no code with the program's traversal, baseline or k-paths packages,
// so a bug there cannot hide in the check.

// noDist marks an unreachable node, matching the program's sentinel.
const noDist = ^uint32(0)

// refGraph is an undirected graph as sorted adjacency lists. Under
// churn the benchmark applies each update batch to it before the
// program sees the batch; log records every edge flip by epoch so an
// answer served from an older snapshot can still be checked.
type refGraph struct {
	mu  sync.RWMutex
	adj [][]uint32
	m   int
	log map[uint64][]flip
}

// flip is one change of an edge's presence, effective from epoch on.
type flip struct {
	epoch   uint64
	present bool
}

func edgeKey(u, v uint32) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(u)<<32 | uint64(v)
}

func newRefGraph(n int, edges [][2]uint32) *refGraph {
	r := &refGraph{adj: make([][]uint32, n), log: make(map[uint64][]flip)}
	for _, e := range edges {
		r.adj[e[0]] = append(r.adj[e[0]], e[1])
		r.adj[e[1]] = append(r.adj[e[1]], e[0])
	}
	for u := range r.adj {
		slices.Sort(r.adj[u])
		r.adj[u] = slices.Compact(r.adj[u])
		r.m += len(r.adj[u])
	}
	r.m /= 2
	return r
}

func (r *refGraph) n() int { return len(r.adj) }

// has reports whether {u, v} is an edge of the current graph.
func (r *refGraph) has(u, v uint32) bool {
	if int(u) >= len(r.adj) || int(v) >= len(r.adj) {
		return false
	}
	_, ok := slices.BinarySearch(r.adj[u], v)
	return ok
}

// hasAt reports whether {u, v} was an edge at the given epoch.
func (r *refGraph) hasAt(u, v uint32, epoch uint64) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	fl, ok := r.log[edgeKey(u, v)]
	if !ok {
		return r.has(u, v)
	}
	present := !fl[0].present // the state before the first flip
	for _, f := range fl {
		if f.epoch > epoch {
			break
		}
		present = f.present
	}
	return present
}

// apply inserts and deletes edges as the update of the given epoch.
func (r *refGraph) apply(epoch uint64, ins, del [][2]uint32) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, e := range ins {
		r.adj[e[0]] = insertSorted(r.adj[e[0]], e[1])
		r.adj[e[1]] = insertSorted(r.adj[e[1]], e[0])
		r.m++
		k := edgeKey(e[0], e[1])
		r.log[k] = append(r.log[k], flip{epoch, true})
	}
	for _, e := range del {
		r.adj[e[0]] = removeSorted(r.adj[e[0]], e[1])
		r.adj[e[1]] = removeSorted(r.adj[e[1]], e[0])
		r.m--
		k := edgeKey(e[0], e[1])
		r.log[k] = append(r.log[k], flip{epoch, false})
	}
}

func insertSorted(s []uint32, v uint32) []uint32 {
	i, _ := slices.BinarySearch(s, v)
	return slices.Insert(s, i, v)
}

func removeSorted(s []uint32, v uint32) []uint32 {
	i, _ := slices.BinarySearch(s, v)
	return slices.Delete(s, i, i+1)
}

// bfs fills dist (len n) with hop distances from src, noDist where
// unreachable. queue is scratch of capacity n.
func (r *refGraph) bfs(src uint32, dist []uint32, queue []uint32) {
	for i := range dist {
		dist[i] = noDist
	}
	dist[src] = 0
	queue = append(queue[:0], src)
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		d := dist[u] + 1
		for _, v := range r.adj[u] {
			if dist[v] == noDist {
				dist[v] = d
				queue = append(queue, v)
			}
		}
	}
}

// bfsFrom returns a fresh distance array from src.
func (r *refGraph) bfsFrom(src uint32) []uint32 {
	dist := make([]uint32, r.n())
	r.bfs(src, dist, make([]uint32, 0, r.n()))
	return dist
}

// checkPath verifies that path is a walk s→t over edges (as judged by
// edge) whose hop count is dist. An unreachable answer must carry no
// path; loopless additionally rejects a repeated node.
func checkPath(s, t, dist uint32, path []uint32, edge func(u, v uint32) bool, loopless bool) error {
	if dist == noDist {
		if len(path) != 0 {
			return fmt.Errorf("%d→%d: unreachable answer carries a %d-node path", s, t, len(path))
		}
		return nil
	}
	if len(path) == 0 {
		return fmt.Errorf("%d→%d: distance %d without a path", s, t, dist)
	}
	if path[0] != s || path[len(path)-1] != t {
		return fmt.Errorf("%d→%d: path runs %d→%d", s, t, path[0], path[len(path)-1])
	}
	if uint32(len(path)-1) != dist {
		return fmt.Errorf("%d→%d: path of %d hops for distance %d", s, t, len(path)-1, dist)
	}
	for i := 1; i < len(path); i++ {
		if !edge(path[i-1], path[i]) {
			return fmt.Errorf("%d→%d: path step %d-%d is not an edge", s, t, path[i-1], path[i])
		}
	}
	if loopless {
		seen := make(map[uint32]bool, len(path))
		for _, v := range path {
			if seen[v] {
				return fmt.Errorf("%d→%d: path repeats node %d", s, t, v)
			}
			seen[v] = true
		}
	}
	return nil
}

// rankedPath is one entry of a K-paths answer, as checked here.
type rankedPath struct {
	dist uint32
	path []uint32
}

// checkKPaths verifies the properties every ranked-paths answer must
// have: at most k entries, each a loopless walk of its stated length,
// lengths non-decreasing, no two equal, and the first at the true
// distance want.
func checkKPaths(s, t uint32, k int, want uint32, ps []rankedPath, edge func(u, v uint32) bool) error {
	if len(ps) == 0 || len(ps) > k {
		return fmt.Errorf("%d→%d: %d ranked paths for k=%d", s, t, len(ps), k)
	}
	if ps[0].dist != want {
		return fmt.Errorf("%d→%d: first ranked path has length %d, BFS distance is %d", s, t, ps[0].dist, want)
	}
	seen := make(map[string]bool, len(ps))
	for i, p := range ps {
		if err := checkPath(s, t, p.dist, p.path, edge, true); err != nil {
			return fmt.Errorf("ranked path %d: %w", i, err)
		}
		if i > 0 && p.dist < ps[i-1].dist {
			return fmt.Errorf("%d→%d: ranked path %d shorter than its predecessor", s, t, i)
		}
		key := fmt.Sprint(p.path)
		if seen[key] {
			return fmt.Errorf("%d→%d: ranked path %d repeats an earlier one", s, t, i)
		}
		seen[key] = true
	}
	return nil
}
