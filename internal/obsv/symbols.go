package obsv

import (
	"sync"
	"sync/atomic"
)

// Sym is a handle to a string in the process-wide symbol table. Span
// records store Syms instead of string headers, so the retained span
// buffer carries no pointers and the garbage collector never scans it.
// An instrumented component resolves its Syms once — as package-level
// values or when it is handed its hub — and recording a span then
// stores the handles it was given: no hash, lookup or lock per span.
type Sym uint32

// MaxSymbols bounds the symbol table. Every interned string lives for
// the life of the process, so the table is bounded by construction: past
// the cap a new string interns to the one overflow symbol (and renders
// as "(overflow)") instead of growing the table. Span names and keys
// are code constants and string values are low-cardinality by contract
// (see Str), so a healthy process holds a few hundred symbols; the cap
// also bounds what a flood of strangers can cost, since each first
// sighting copies the table.
const MaxSymbols = 2048

const (
	symEmpty    Sym = iota // "", also the zero Sym
	symOverflow            // what a new string interns to once the table is full
)

// symtab interns strings. The read path is lock-free: an immutable
// map behind an atomic pointer, republished (copied) by the rare write
// — the first sighting of a string — under the mutex.
type symtab struct {
	mu    sync.Mutex
	ids   atomic.Pointer[map[string]Sym]
	names atomic.Pointer[[]string] // index = Sym; append-only, so a loaded snapshot stays valid
}

func newSymtab() *symtab {
	st := &symtab{}
	names := []string{symEmpty: "", symOverflow: "(overflow)"}
	ids := make(map[string]Sym, len(names))
	for i, s := range names {
		ids[s] = Sym(i)
	}
	st.ids.Store(&ids)
	st.names.Store(&names)
	return st
}

func (st *symtab) intern(s string) Sym {
	if id, ok := (*st.ids.Load())[s]; ok {
		return id
	}
	return st.add(s)
}

// add is intern's write path: the first sighting of s.
func (st *symtab) add(s string) Sym {
	st.mu.Lock()
	defer st.mu.Unlock()
	old := *st.ids.Load()
	if id, ok := old[s]; ok {
		return id
	}
	if len(old) >= MaxSymbols {
		return symOverflow
	}
	id := Sym(len(old))
	ids := make(map[string]Sym, len(old)+1)
	for k, v := range old {
		ids[k] = v
	}
	ids[s] = id
	names := append(*st.names.Load(), s)
	st.names.Store(&names)
	st.ids.Store(&ids)
	return id
}

// snapshot returns the name table as of now; names[id] resolves every
// Sym handed out before the call.
func (st *symtab) snapshot() []string { return *st.names.Load() }

// symbols is the process-wide table every tracer and handle shares.
var symbols = newSymtab()

// Intern returns the handle of s, adding it to the symbol table on
// first sight. Known strings resolve lock-free; call it once per
// distinct string at wiring time, not per span.
func Intern(s string) Sym { return symbols.intern(s) }

// String resolves the handle.
func (s Sym) String() string {
	if names := symbols.snapshot(); int(s) < len(names) {
		return names[s]
	}
	return ""
}

// SymbolCount reports how many strings the symbol table holds; it never
// exceeds MaxSymbols. A test seam: TestSymbolTableBounded holds it to
// that bound under a stream of fresh names.
func SymbolCount() int { return len(symbols.snapshot()) }

// Site names one instrumentation site — a span's track and name —
// resolved once. Start and Mark record it as is.
type Site struct{ track, name Sym }

// NewSite resolves a span's track and name.
func NewSite(track, name string) Site { return Site{Intern(track), Intern(name)} }

// Key is a resolved attribute key; its methods build Fields, the
// handle form of the Str/U64/I64/Hex/Bool attribute constructors.
type Key struct{ sym Sym }

// NewKey resolves an attribute key.
func NewKey(name string) Key { return Key{Intern(name)} }

// Field is one span attribute in handle form: a resolved key and a raw
// number or value handle, copied into the span record unchanged.
// Metadata only, like Attr — never payload bytes.
type Field struct {
	key  Sym
	kind attrKind
	num  uint64 // for attrStr the value's Sym, otherwise the raw number
}

// Str builds a string attribute from a resolved value; the same
// low-cardinality contract as the Str constructor applies.
func (k Key) Str(v Sym) Field { return Field{key: k.sym, kind: attrStr, num: uint64(v)} }

// U64 builds an unsigned integer attribute.
func (k Key) U64(v uint64) Field { return Field{key: k.sym, kind: attrU64, num: v} }

// I64 builds a signed integer attribute.
func (k Key) I64(v int64) Field { return Field{key: k.sym, kind: attrI64, num: uint64(v)} }

// Hex builds a hexadecimal address attribute.
func (k Key) Hex(v uint64) Field { return Field{key: k.sym, kind: attrHex, num: v} }

// Bool builds a boolean attribute.
func (k Key) Bool(v bool) Field {
	f := Field{key: k.sym, kind: attrBool}
	if v {
		f.num = 1
	}
	return f
}

// field resolves a string-form attribute: the cold-site path into the
// same record the handle form fills.
func (a Attr) field() Field {
	f := Field{key: Intern(a.Key), kind: a.kind, num: a.num}
	if a.kind == attrStr {
		f.num = uint64(Intern(a.str))
	}
	return f
}

// attr renders a recorded attribute back to its string form.
func (f Field) attr(names []string) Attr {
	a := Attr{Key: names[f.key], kind: f.kind}
	if f.kind == attrStr {
		a.str = names[f.num]
	} else {
		a.num = f.num
	}
	return a
}
