package lts

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"slices"
	"sort"
)

// Hash returns a canonical content digest of the LTS: the
// hex-encoded SHA-256 of its behavioural content. The digest depends only
// on the number of states, the initial state, and the labeled transition
// multiset (with labels compared as strings), so it is invariant under
// transition insertion order and label interning order: two builds of the
// same system hash identically however their transitions were added.
// Unused interned labels and the descriptive name do not contribute.
//
// The digest is the content address of the artifact cache in
// internal/serve: models, quotients and solution vectors are keyed by it,
// so behaviourally identical inputs share one cached computation.
func (l *LTS) Hash() string {
	h := sha256.New()
	var buf [8]byte
	// All digest words go through writeU64 so the encoding is identical
	// on 32- and 64-bit platforms (packed (rank, dst) pairs are 64 bits
	// wide and must not pass through int).
	writeU64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	writeInt := func(v int) { writeU64(uint64(v)) }

	// Rank the labels that occur on transitions by name, so label ids
	// (interning order) never leak into the digest.
	used := make([]bool, len(l.labels))
	for _, lab := range l.lab {
		used[lab] = true
	}
	var names []string
	for id, u := range used {
		if u {
			names = append(names, l.labels[id])
		}
	}
	sort.Strings(names)
	rank := make([]int32, len(l.labels))
	for id, u := range used {
		if u {
			rank[id] = int32(sort.SearchStrings(names, l.labels[id]))
		}
	}

	writeInt(l.numStates)
	writeInt(int(l.initial))
	writeInt(len(names))
	for _, name := range names {
		writeInt(len(name))
		h.Write([]byte(name))
	}

	// Out rows are sorted by (label id, dst); re-sort each row by
	// (label rank, dst) so the digest is canonical, then emit it.
	var row []int64 // (rank << 32) | dst, both int32
	for s := 0; s < l.numStates; s++ {
		labs, dsts := l.Out(State(s))
		row = row[:0]
		for i := range labs {
			row = append(row, int64(rank[labs[i]])<<32|int64(dsts[i]))
		}
		slices.Sort(row)
		writeInt(len(row))
		for _, v := range row {
			writeU64(uint64(v))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
