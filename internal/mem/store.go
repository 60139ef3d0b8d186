package mem

import (
	"fmt"

	"repro/internal/ctypes"
)

// ObjKind classifies an object's storage duration and provenance.
type ObjKind int

// Object kinds.
const (
	ObjStatic ObjKind = iota // file-scope and static-local objects
	ObjAuto                  // block-scope automatic objects
	ObjHeap                  // malloc/calloc/realloc results
	ObjFunc                  // function designators
	ObjString                // string literals
)

func (k ObjKind) String() string {
	switch k {
	case ObjStatic:
		return "static"
	case ObjAuto:
		return "auto"
	case ObjHeap:
		return "heap"
	case ObjFunc:
		return "function"
	case ObjString:
		return "string literal"
	}
	return "object"
}

// Object is one allocated object: the memory cell entry B ↦ obj(Len, bytes).
type Object struct {
	ID   ObjID
	Kind ObjKind
	Size int64
	Data []Byte

	// Live is false once the object's lifetime has ended (scope exit,
	// free); the bytes are retained so dangling uses can be diagnosed.
	Live bool

	// Name is the declared name (diagnostics); for ObjFunc, the name of
	// the designated function.
	Name string

	// DeclType is the object's declared/effective type (for the
	// strict-aliasing check, C11 §6.5:7); nil for heap objects until a
	// value is stored (we then leave it nil — heap memory takes the type
	// of what is stored per access, checked shallowly).
	DeclType *ctypes.Type
}

// Loc is one byte location (the elements of locsWrittenTo / notWritable).
type Loc struct {
	Obj ObjID
	Off int64
}

// Store is the memory: a map from base addresses to objects, plus the
// notWritable set of const locations (paper §4.2.2). Base addresses are
// dense: IDs 1..F are the program's function designators (ReserveFuncs),
// and allocation continues from F+1, so the "map" is a slice indexed by
// ObjID-F-1 — every load and store resolves its object with one bounds
// check instead of a hash lookup.
type Store struct {
	objs        []*Object // objs[id-nfuncs-1] is the object with base id
	unknownSeq  int64
	notWritable map[Loc]struct{} // nil until the first const object

	// funcs names the designators of IDs 1..nfuncs. They have no object
	// until something inspects one as memory (pointer arithmetic, a
	// comparison, a library call); designators caches those, by ID-1.
	funcs       Funcs
	nfuncs      int
	designators []*Object

	// Limits (failure injection / runaway guards).
	MaxObjects int
	MaxBytes   int64
	liveBytes  int64

	// kills counts lifetime terminations (monotonic, never reset). The
	// search driver's partial-order reduction snapshots it around operand
	// evaluation: frame teardown and free() don't emit observer events, so
	// a counter delta is how an operand that ends lifetimes is detected.
	kills int64
}

// NewStore returns an empty memory.
func NewStore() *Store {
	return &Store{
		MaxObjects: 1 << 20,
		MaxBytes:   1 << 24, // 16 MiB of C bytes (each costs ~16x in Go)
	}
}

// Funcs names a program's function designators.
type Funcs interface {
	NumFuncs() int
	FuncName(i int) string // the designator of ObjID i+1
}

// ReserveFuncs gives IDs 1..f.NumFuncs() to the function designators of
// f. It must be called before the first Alloc.
func (s *Store) ReserveFuncs(f Funcs) {
	s.funcs = f
	s.nfuncs = f.NumFuncs()
}

// IsFunc reports whether id is a function designator.
func (s *Store) IsFunc(id ObjID) bool { return id >= 1 && int64(id) <= int64(s.nfuncs) }

// ErrLimit is returned when an allocation exceeds the store's limits.
var ErrLimit = fmt.Errorf("memory limit exceeded")

// Alloc creates a new live object of size bytes, all indeterminate.
func (s *Store) Alloc(kind ObjKind, size int64, name string, declType *ctypes.Type) (*Object, error) {
	if s.NumObjects() >= s.MaxObjects || s.liveBytes+size > s.MaxBytes || size < 0 {
		return nil, ErrLimit
	}
	o := &Object{
		ID:       ObjID(s.NumObjects() + 1),
		Kind:     kind,
		Size:     size,
		Data:     make([]Byte, size),
		Live:     true,
		Name:     name,
		DeclType: declType,
	}
	for i := range o.Data {
		s.unknownSeq++
		o.Data[i] = Unknown{ID: s.unknownSeq}
	}
	s.objs = append(s.objs, o)
	s.liveBytes += size
	return o, nil
}

// Obj looks up an object by base. It returns objects whose lifetime has
// ended too — callers decide whether that is an error.
func (s *Store) Obj(id ObjID) (*Object, bool) {
	if i := int64(id) - int64(s.nfuncs) - 1; i >= 0 && i < int64(len(s.objs)) {
		return s.objs[i], true
	}
	if s.IsFunc(id) {
		return s.designator(id), true
	}
	return nil, false
}

// designator returns the object of function designator id, made on the
// first request of the run.
func (s *Store) designator(id ObjID) *Object {
	if s.designators == nil {
		s.designators = make([]*Object, s.nfuncs)
	}
	o := s.designators[id-1]
	if o == nil {
		name := s.funcs.FuncName(int(id - 1))
		o = &Object{ID: id, Kind: ObjFunc, Live: true, Name: name}
		s.designators[id-1] = o
	}
	return o
}

// Kill ends an object's lifetime, retaining its identity for dangling-use
// diagnosis.
func (s *Store) Kill(id ObjID) {
	if s.IsFunc(id) {
		return // a function designator lives as long as the program
	}
	if o, ok := s.Obj(id); ok && o.Live {
		o.Live = false
		s.liveBytes -= o.Size
		s.kills++
	}
}

// Zero fills [off, off+n) with concrete zero bytes.
func (o *Object) Zero(off, n int64) {
	for i := off; i < off+n && i < o.Size; i++ {
		o.Data[i] = Concrete{B: 0}
	}
}

// MarkNotWritable records [off, off+n) of obj as const (paper §4.2.2).
func (s *Store) MarkNotWritable(obj ObjID, off, n int64) {
	if s.notWritable == nil {
		s.notWritable = make(map[Loc]struct{})
	}
	for i := off; i < off+n; i++ {
		s.notWritable[Loc{Obj: obj, Off: i}] = struct{}{}
	}
}

// IsNotWritable reports whether any byte of [off, off+n) is const.
func (s *Store) IsNotWritable(obj ObjID, off, n int64) bool {
	if len(s.notWritable) == 0 {
		return false // no const object exists: skip the per-byte lookups
	}
	for i := off; i < off+n; i++ {
		if _, ok := s.notWritable[Loc{Obj: obj, Off: i}]; ok {
			return true
		}
	}
	return false
}

// FreshUnknown returns a new indeterminate byte.
func (s *Store) FreshUnknown() Byte {
	s.unknownSeq++
	return Unknown{ID: s.unknownSeq}
}

// NumObjects reports how many objects (live or dead) the store tracks,
// the function designators included.
func (s *Store) NumObjects() int { return s.nfuncs + len(s.objs) }

// LiveBytes reports the total size of live objects.
func (s *Store) LiveBytes() int64 { return s.liveBytes }

// Kills reports how many object lifetimes have ended so far.
func (s *Store) Kills() int64 { return s.kills }
