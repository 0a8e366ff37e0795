package main

import (
	"bytes"
	"fmt"
	"math/rand"

	"repro/internal/apps/kv"
	"repro/internal/types"
)

// opKind is what one generated operation does.
type opKind uint8

const (
	opPut opKind = iota
	opGet
)

// genOp is one generated operation: what the program under test receives
// (Body) and what the checker needs to know about it.
type genOp struct {
	Index   int
	Kind    opKind
	Key     int
	Version uint64 // puts: the version this put installs
	Body    []byte
}

// stream is the seeded operation stream of one workload. Operation i is a
// pure function of (seed, i), so two runs with one seed submit byte-identical
// operations in the same order whatever the timing of their replies.
//
// Keys are visited in a seeded permutation, cyclically: any run of
// len(perm) consecutive operations touches distinct keys, so operations
// outstanding together never share a key unless one of them has been
// outstanding for a whole cycle (the generators wait in that case), and
// every reply's expected bytes are known when it arrives.
type stream struct {
	seed      uint64
	perm      []int
	valueSize int
	readShare float64
}

func newStream(seed int64, keys, valueSize int, readShare float64) *stream {
	rng := rand.New(rand.NewSource(seed))
	return &stream{
		seed:      uint64(seed),
		perm:      rng.Perm(keys),
		valueSize: valueSize,
		readShare: readShare,
	}
}

// splitmix64 is the stateless mixer behind every per-operation draw.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func keyName(key int) string { return fmt.Sprintf("key-%06d", key) }

// value returns the bytes version v of key holds. Version 0 is the
// preloaded value; the put at stream index i installs version i+1.
func (s *stream) value(key int, version uint64) []byte {
	out := make([]byte, s.valueSize)
	x := splitmix64(s.seed ^ uint64(key)<<32 ^ version)
	for i := 0; i < len(out); i += 8 {
		x = splitmix64(x)
		for j := 0; j < 8 && i+j < len(out); j++ {
			out[i+j] = byte(x >> (8 * j))
		}
	}
	return out
}

// at returns operation i of the stream.
func (s *stream) at(i int) genOp {
	op := genOp{Index: i, Key: s.perm[i%len(s.perm)]}
	draw := float64(splitmix64(s.seed^0xa5a5a5a5^uint64(i)<<1)>>11) / (1 << 53)
	if draw < s.readShare {
		op.Kind = opGet
		op.Body = kv.GetOp(keyName(op.Key))
		return op
	}
	op.Kind = opPut
	op.Version = uint64(i) + 1
	op.Body = kv.Put(keyName(op.Key), s.value(op.Key, op.Version))
	return op
}

// preloaded returns a kv store holding version 0 of every key. Each replica
// gets its own through the application factory, so the state is in place
// (and identical everywhere) before the first request.
func (s *stream) preloaded() *kv.Store {
	st := kv.New()
	for k := range s.perm {
		st.Execute(kv.Put(keyName(k), s.value(k, 0)), types.NonDet{})
	}
	return st
}

var replyOK = []byte("OK")

// model is the checker's copy of the service state: the version each key
// holds according to the replies acknowledged so far.
type model struct {
	s       *stream
	version []uint64
	tainted []bool // a put to the key failed, so its value is unknown
	busy    []bool // an operation on the key is outstanding
}

func newModel(s *stream) *model {
	n := len(s.perm)
	return &model{s: s, version: make([]uint64, n), tainted: make([]bool, n), busy: make([]bool, n)}
}

// check applies one completed operation and reports whether its reply is
// the one the model expects.
func (m *model) check(op genOp, reply []byte, err error) bool {
	m.busy[op.Key] = false
	if err != nil {
		if op.Kind == opPut {
			m.tainted[op.Key] = true
		}
		return false
	}
	if op.Kind == opPut {
		m.version[op.Key] = op.Version
		m.tainted[op.Key] = false
		return bytes.Equal(reply, replyOK)
	}
	return m.tainted[op.Key] || bytes.Equal(reply, m.s.value(op.Key, m.version[op.Key]))
}
