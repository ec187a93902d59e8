package jsvm

import (
	"encoding/binary"
	"math"
	"strings"
	"sync"
)

// CallMemo maps calls of pure script functions (see scope.taint) to
// their results, and script source texts to their compiled Programs.
// Vendors copy-paste the same helpers, so one study's scripts call,
// say, the same djb2 hash over the same data URL on thousands of pages;
// a hit returns the result and charges the steps the call took, without
// running the body. They also copy whole scripts: a Scale 0.1 study
// runs 3,073 script bodies of which 173 are distinct, so Parse through
// the memo lexes, parses and compiles each distinct body once.
//
// A call key is the function's source text from "(" to the closing
// "}", so separately parsed copies of a helper share entries, then each
// argument's kind and value. Only calls whose arguments are all
// primitives are looked up, and only calls that returned a primitive
// without an error are stored. A hit is served only when its recorded
// steps fit the remaining budget; otherwise the body runs and meets the
// limit where it always did. Compiled code holds no run state, so one
// Program may run on any number of interpreters. So a memo changes no
// value, error, Steps() count or console line, only how fast they
// arrive.
//
// One study shares one CallMemo across its crawls and their workers, so
// it is safe for concurrent use. Its size is bounded by bytes: it
// empties when full. Hits depend on scheduling, so nothing counts them.
type CallMemo struct {
	mu    sync.RWMutex
	calls map[string]callResult
	progs map[string]parsed
	size  int // bytes of keys, results and programs held
	limit int
}

// callResult is a stored call: its return value and the steps it charged.
type callResult struct {
	v     Value
	steps int
}

// parsed is a stored Parse: the program, or the error.
type parsed struct {
	prog *Program
	err  error
}

// callMemoBytes bounds a CallMemo. A Scale 0.1 study at seed 3 ends
// holding 412 calls in 1.46 MB.
const callMemoBytes = 64 << 20

// memoEntryBytes is the bookkeeping charged per entry on top of its key
// and result bytes.
const memoEntryBytes = 64

// programBytesPerUnit bounds the heap a compiled Program holds per unit
// of its size (parse): a token, and two more units for each token that
// opens a function literal. Measured with runtime.ReadMemStats around
// parses kept alive, the corpus's vendor, deferred and benign scripts
// hold 28 to 55 bytes per token, dense hostile text up to 95 (`x++;…`,
// `;;;…`), and a chain of arrow functions 314 bytes per link of two
// tokens and one function. A Program is also charged twice its
// source: once for the memo's key and once for its string literals,
// which the lexer copies.
const programBytesPerUnit = 96

// NewCallMemo returns an empty CallMemo.
func NewCallMemo() *CallMemo {
	return &CallMemo{calls: map[string]callResult{}, progs: map[string]parsed{}, limit: callMemoBytes}
}

func (m *CallMemo) get(key []byte) (callResult, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	c, ok := m.calls[string(key)]
	return c, ok
}

func (m *CallMemo) put(key string, c callResult) {
	n := len(key) + len(c.v.str()) + memoEntryBytes
	if n > m.limit {
		return
	}
	if c.v.kind == KindString {
		// A string cut from a larger one (charAt, slice, split) shares
		// its bytes; a copy keeps only the bytes counted.
		c.v = String(strings.Clone(c.v.str()))
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.calls[key]; ok {
		return // another worker made the same call first
	}
	m.reserve(n)
	m.calls[key] = c
}

// Parse returns what Parse(src) returns, parsing src only when the memo
// holds no earlier parse of the same text. A nil memo parses every time.
func (m *CallMemo) Parse(src string) (*Program, error) {
	if m == nil {
		return Parse(src)
	}
	m.mu.RLock()
	p, ok := m.progs[src]
	m.mu.RUnlock()
	if ok {
		return p.prog, p.err
	}
	var units int
	p.prog, units, p.err = parse(src)
	n := 2*len(src) + units*programBytesPerUnit + memoEntryBytes
	if n > m.limit {
		return p.prog, p.err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.progs[src]; !ok { // another worker may have parsed it first
		m.reserve(n)
		m.progs[src] = p
	}
	return p.prog, p.err
}

// reserve charges n more bytes, first emptying the memo if they would
// pass its bound. The caller holds m.mu for writing.
func (m *CallMemo) reserve(n int) {
	if m.size+n > m.limit {
		m.calls, m.progs, m.size = map[string]callResult{}, map[string]parsed{}, 0
	}
	m.size += n
}

// memoPrefix is the key prefix of a pure function with source src.
func memoPrefix(src string) string {
	return string(binary.AppendUvarint(nil, uint64(len(src)))) + src
}

// Key building reads every argument byte, so it is budgeted: a run may
// build memoKeySlack bytes of keys plus memoKeyPerStep per step charged
// since the last ResetSteps. Past that, calls skip the memo. Without
// the budget, a loop passing a 16 MB string to a one-step pure function
// would hash 16 MB per iteration. A hash of a multi-kB data URL charges
// about 21 steps per byte, so memoised calls earn their keys many times
// over.
const (
	memoKeySlack   = 1 << 20
	memoKeyPerStep = 16
)

// callKey builds the memo key of a call to code in in.keyBuf. It
// reports false when an argument is not a primitive or the key would
// overrun the run's key budget.
func (in *Interp) callKey(code *funcCode, args []Value) ([]byte, bool) {
	n := len(code.memo)
	for _, a := range args {
		switch a.kind {
		case KindObject:
			return nil, false
		case KindString:
			n += 1 + binary.MaxVarintLen64 + a.n
		default:
			n += 9
		}
	}
	if in.keyBytes+n > memoKeySlack+memoKeyPerStep*in.steps {
		return nil, false
	}
	in.keyBytes += n
	k := append(in.keyBuf[:0], code.memo...)
	for _, a := range args {
		k = append(k, byte(a.kind))
		switch a.kind {
		case KindString:
			k = binary.AppendUvarint(k, uint64(a.n))
			k = append(k, a.str()...)
		case KindNumber, KindBool:
			k = binary.LittleEndian.AppendUint64(k, math.Float64bits(a.num))
		}
	}
	in.keyBuf = k
	return k, true
}

// memoCall runs a call of the pure function fn through the memo: a hit
// that fits the step budget charges its steps and returns its value;
// anything else runs the call and stores what it returned if that
// qualifies.
func (in *Interp) memoCall(fn Value, code *funcCode, this Value, args []Value) (Value, error) {
	key, ok := in.callKey(code, args)
	if !ok {
		return in.call(fn, code, this, args)
	}
	if c, hit := in.calls.get(key); hit && in.steps+c.steps <= in.maxSteps {
		in.steps += c.steps
		return c.v, nil
	}
	k := string(key) // keyBuf is free for reuse once the body runs
	start := in.steps
	v, err := in.call(fn, code, this, args)
	if err == nil && v.kind != KindObject {
		in.calls.put(k, callResult{v: v, steps: in.steps - start})
	}
	return v, err
}
