package cpp

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// Error is a preprocessing error with a source position.
type Error struct {
	File string
	Line int
	Msg  string
}

func (e *Error) Error() string { return fmt.Sprintf("%s:%d: %s", e.File, e.Line, e.Msg) }

// Resolver locates the contents of an #include.
type Resolver interface {
	// Resolve returns the contents and canonical name of the included file.
	// system reports whether the include used <...> rather than "...".
	// fromDir is the directory of the including file (for "..." includes).
	Resolve(name string, system bool, fromDir string) (content, path string, err error)
}

// tokenResolver is a Resolver that can also serve an include as tokens it
// scanned once and shares read-only: the included file's tokens, ending
// in the ppIncludeEnd marker that carries its path.
type tokenResolver interface {
	resolveTokens(name string, system bool, fromDir string) ([]ppTok, error)
}

// resolveTokens resolves an include through r and returns its tokens,
// ending in the include's end marker. A resolver that only has Resolve is
// scanned on every include.
func resolveTokens(r Resolver, name string, system bool, fromDir string) ([]ppTok, error) {
	if tr, ok := r.(tokenResolver); ok {
		return tr.resolveTokens(name, system, fromDir)
	}
	content, path, err := r.Resolve(name, system, fromDir)
	if err != nil {
		return nil, err
	}
	return scanInclude(content, path), nil
}

// scanInclude scans an included file, replacing its trailing EOF with the
// marker that pops the include depth.
func scanInclude(content, path string) []ppTok {
	toks := scanFile(content, path)
	toks[len(toks)-1] = ppTok{kind: ppIncludeEnd, file: path}
	return toks[:len(toks):len(toks)]
}

// MapResolver serves includes from an in-memory set of files. Both <name>
// and "name" forms resolve through it. Every file is scanned once, when
// the resolver is built, and its tokens are shared read-only by every
// preprocessor that includes it: a MapResolver is immutable and safe for
// concurrent use.
type MapResolver struct {
	files map[string]string
	toks  map[string][]ppTok
}

// NewMapResolver returns a resolver serving files, name → contents.
func NewMapResolver(files map[string]string) *MapResolver {
	m := &MapResolver{files: make(map[string]string, len(files)), toks: make(map[string][]ppTok, len(files))}
	for name, content := range files {
		m.files[name] = content
		m.toks[name] = scanInclude(content, name)
	}
	return m
}

// Resolve implements Resolver.
func (m *MapResolver) Resolve(name string, system bool, fromDir string) (string, string, error) {
	if c, ok := m.files[name]; ok {
		return c, name, nil
	}
	return "", "", fmt.Errorf("include file %q not found", name)
}

func (m *MapResolver) resolveTokens(name string, system bool, fromDir string) ([]ppTok, error) {
	if t, ok := m.toks[name]; ok {
		return t, nil
	}
	return nil, fmt.Errorf("include file %q not found", name)
}

// ChainResolver tries each resolver in turn.
type ChainResolver []Resolver

// Resolve implements Resolver.
func (c ChainResolver) Resolve(name string, system bool, fromDir string) (string, string, error) {
	var firstErr error
	for _, r := range c {
		content, path, err := r.Resolve(name, system, fromDir)
		if err == nil {
			return content, path, nil
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	return "", "", chainErr(firstErr, name)
}

// resolveTokens passes the token lookup on to each member in turn, so a
// MapResolver in the chain still serves its shared tokens.
func (c ChainResolver) resolveTokens(name string, system bool, fromDir string) ([]ppTok, error) {
	var firstErr error
	for _, r := range c {
		toks, err := resolveTokens(r, name, system, fromDir)
		if err == nil {
			return toks, nil
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	return nil, chainErr(firstErr, name)
}

func chainErr(firstErr error, name string) error {
	if firstErr == nil {
		return fmt.Errorf("include file %q not found", name)
	}
	return firstErr
}

// FSResolver serves "..." includes from the filesystem relative to the
// including file's directory.
type FSResolver struct{}

// Resolve implements Resolver.
func (FSResolver) Resolve(name string, system bool, fromDir string) (string, string, error) {
	if system {
		return "", "", fmt.Errorf("system include %q not found", name)
	}
	p := name
	if !filepath.IsAbs(p) {
		p = filepath.Join(fromDir, name)
	}
	b, err := os.ReadFile(p)
	if err != nil {
		return "", "", err
	}
	return string(b), p, nil
}

// Macro is a preprocessor macro definition. A Macro is never mutated after
// it is created, so preprocessors share the predefined ones.
type Macro struct {
	Name     string
	FuncLike bool
	Params   []string
	Variadic bool
	Body     []ppTok
}

type condState struct {
	active     bool // this branch is being emitted
	everActive bool // some branch of this #if chain was taken
	parentLive bool // enclosing context is active
	sawElse    bool
	line       int
	file       string
}

// Preprocessor expands one translation unit.
type Preprocessor struct {
	resolver Resolver
	macros   map[string]*Macro
	conds    []condState
	// in is the token worklist: a stack of read-only token runs whose
	// concatenation, top run first, is the rest of the input. An include
	// pushes the header's run; a macro rescan pushes its replacement
	// list. Neither copies what is below. Runs below floor belong to an
	// enclosing expandList and are out of reach.
	in      [][]ppTok
	floor   int
	expbuf  []ppTok // Run's expansion buffer
	out     strings.Builder
	scratch [64]byte // emit's line-marker buffer
	outFile string
	outLine int
	depth   int // include nesting depth
	counter int // __COUNTER__
}

const maxIncludeDepth = 40

// New returns a preprocessor resolving includes through r (FSResolver and
// the built-in libc headers are sensible defaults; see Preprocess).
func New(r Resolver) *Preprocessor {
	macros := make(map[string]*Macro, len(predefined))
	for name, m := range predefined {
		macros[name] = m
	}
	return &Preprocessor{resolver: r, macros: macros}
}

// Preprocess runs src (named file) through a fresh preprocessor with the
// given resolver and returns the expanded text with line markers.
func Preprocess(src, file string, r Resolver) (string, error) {
	pp := New(r)
	return pp.Run(src, file)
}

// predefined holds the object-like predefined macros, scanned once and
// shared by every preprocessor. __FILE__, __LINE__ and __COUNTER__ are
// handled in expandTok.
var predefined = map[string]*Macro{
	"__STDC__":         objectMacro("__STDC__", "1", "<builtin>"),
	"__STDC_VERSION__": objectMacro("__STDC_VERSION__", "201112L", "<builtin>"),
	"__STDC_HOSTED__":  objectMacro("__STDC_HOSTED__", "1", "<builtin>"),
	"__KCC__":          objectMacro("__KCC__", "1", "<builtin>"),
	"__x86_64__":       objectMacro("__x86_64__", "1", "<builtin>"),
	// Deterministic date/time: reproducibility beats realism here.
	"__DATE__": objectMacro("__DATE__", `"Jan  1 2015"`, "<builtin>"),
	"__TIME__": objectMacro("__TIME__", `"00:00:00"`, "<builtin>"),
}

// objectMacro scans the first line of body into an object-like macro.
func objectMacro(name, body, file string) *Macro {
	sc := newPPScanner(body, file)
	var toks []ppTok
	for {
		t := sc.next()
		if t.kind == ppEOF || t.isPunct("\n") {
			break
		}
		toks = append(toks, t)
	}
	return &Macro{Name: name, Body: toks}
}

// Define adds a command-line style definition ("NAME" or "NAME=VALUE").
func (pp *Preprocessor) Define(d string) {
	name, val := d, "1"
	if i := strings.IndexByte(d, '='); i >= 0 {
		name, val = d[:i], d[i+1:]
	}
	pp.macros[name] = objectMacro(name, val, "<cmdline>")
}

func (pp *Preprocessor) errorf(t ppTok, format string, args ...any) error {
	return &Error{File: t.file, Line: t.line, Msg: fmt.Sprintf(format, args...)}
}

// Run preprocesses src and returns the expanded translation unit.
func (pp *Preprocessor) Run(src, file string) (string, error) {
	pp.in = append(pp.in[:0], scanFile(src, file))
	pp.floor = 0
	pp.outFile = ""
	pp.outLine = 0
	for {
		t, ok := pp.peek()
		if !ok {
			break
		}
		if t.kind == ppEOF || t.kind == ppIncludeEnd {
			if t.kind == ppIncludeEnd {
				pp.depth--
			}
			pp.advance()
			continue
		}
		if t.isPunct("\n") {
			pp.advance()
			continue
		}
		if t.isPunct("#") && t.bol {
			if err := pp.directive(); err != nil {
				return "", err
			}
			continue
		}
		if !pp.active() {
			pp.skipLine()
			continue
		}
		var err error
		pp.expbuf, err = pp.expandOne(pp.expbuf[:0])
		if err != nil {
			return "", err
		}
		for _, e := range pp.expbuf {
			pp.emit(e)
		}
	}
	if len(pp.conds) > 0 {
		c := pp.conds[len(pp.conds)-1]
		return "", &Error{File: c.file, Line: c.line, Msg: "unterminated #if"}
	}
	pp.out.WriteByte('\n')
	return pp.out.String(), nil
}

// scanFile scans a whole file; the last token is its EOF.
func scanFile(src, file string) []ppTok {
	sc := newPPScanner(src, file)
	toks := make([]ppTok, 0, len(src)/2+1)
	for {
		t := sc.next()
		toks = append(toks, t)
		if t.kind == ppEOF {
			return toks
		}
	}
}

func (pp *Preprocessor) active() bool {
	for _, c := range pp.conds {
		if !c.active || !c.parentLive {
			return false
		}
	}
	return true
}

// peek returns the next token of the worklist without consuming it,
// popping exhausted runs; ok is false when the worklist is empty.
func (pp *Preprocessor) peek() (t ppTok, ok bool) {
	for len(pp.in) > pp.floor {
		if r := pp.in[len(pp.in)-1]; len(r) > 0 {
			return r[0], true
		}
		pp.in = pp.in[:len(pp.in)-1]
	}
	return ppTok{}, false
}

// advance consumes the token peek returned.
func (pp *Preprocessor) advance() {
	top := len(pp.in) - 1
	pp.in[top] = pp.in[top][1:]
}

// next consumes and returns the next token; ok is false when the worklist
// is empty.
func (pp *Preprocessor) next() (ppTok, bool) {
	t, ok := pp.peek()
	if ok {
		pp.advance()
	}
	return t, ok
}

// push puts a run in front of the worklist. The run is read, never written.
func (pp *Preprocessor) push(run []ppTok) {
	if len(run) > 0 {
		pp.in = append(pp.in, run)
	}
}

// takeLine removes and returns the tokens up to (not including) the next
// newline or EOF; the newline itself is consumed. The line is a read-only
// view of the top run: lines are only taken from a file's run (macro
// replacement lists hold no line starts), and a file's run ends in its EOF
// or include end marker, so a line never spans runs.
func (pp *Preprocessor) takeLine() []ppTok {
	if _, ok := pp.peek(); !ok {
		return nil
	}
	top := len(pp.in) - 1
	r := pp.in[top]
	i := 0
	for i < len(r) && r[i].kind != ppIncludeEnd && r[i].kind != ppEOF && !r[i].isPunct("\n") {
		i++
	}
	line := r[:i:i]
	if i < len(r) && r[i].kind != ppIncludeEnd {
		i++ // consume the newline or EOF; leave the marker for Run
	}
	pp.in[top] = r[i:]
	return line
}

func (pp *Preprocessor) skipLine() { pp.takeLine() }

// directive handles one preprocessing directive (cursor is at '#').
func (pp *Preprocessor) directive() error {
	hash, _ := pp.next()
	line := pp.takeLine()
	if len(line) == 0 {
		return nil // null directive
	}
	name := line[0]
	args := line[1:]
	if name.kind != ppIdent && name.kind != ppNumber {
		if !pp.active() {
			return nil
		}
		return pp.errorf(hash, "invalid preprocessing directive")
	}
	switch name.text {
	case "ifdef", "ifndef":
		live := pp.active()
		taken := false
		if len(args) != 1 || args[0].kind != ppIdent {
			if live {
				return pp.errorf(name, "#%s expects a single identifier", name.text)
			}
		} else {
			_, defined := pp.macros[args[0].text]
			taken = defined == (name.text == "ifdef")
		}
		pp.conds = append(pp.conds, condState{
			active: taken, everActive: taken, parentLive: live,
			line: name.line, file: name.file,
		})
		return nil
	case "if":
		live := pp.active()
		taken := false
		if live {
			v, err := pp.evalCondition(args, name)
			if err != nil {
				return err
			}
			taken = v != 0
		}
		pp.conds = append(pp.conds, condState{
			active: taken, everActive: taken, parentLive: live,
			line: name.line, file: name.file,
		})
		return nil
	case "elif":
		if len(pp.conds) == 0 {
			return pp.errorf(name, "#elif without #if")
		}
		c := &pp.conds[len(pp.conds)-1]
		if c.sawElse {
			return pp.errorf(name, "#elif after #else")
		}
		if !c.parentLive || c.everActive {
			c.active = false
			return nil
		}
		v, err := pp.evalCondition(args, name)
		if err != nil {
			return err
		}
		c.active = v != 0
		c.everActive = c.active
		return nil
	case "else":
		if len(pp.conds) == 0 {
			return pp.errorf(name, "#else without #if")
		}
		c := &pp.conds[len(pp.conds)-1]
		if c.sawElse {
			return pp.errorf(name, "duplicate #else")
		}
		c.sawElse = true
		c.active = c.parentLive && !c.everActive
		c.everActive = true
		return nil
	case "endif":
		if len(pp.conds) == 0 {
			return pp.errorf(name, "#endif without #if")
		}
		pp.conds = pp.conds[:len(pp.conds)-1]
		return nil
	}
	if !pp.active() {
		return nil
	}
	switch name.text {
	case "include":
		return pp.include(name, args)
	case "define":
		return pp.define(name, args)
	case "undef":
		if len(args) != 1 || args[0].kind != ppIdent {
			return pp.errorf(name, "#undef expects a single identifier")
		}
		delete(pp.macros, args[0].text)
		return nil
	case "error":
		return pp.errorf(name, "#error %s", tokensText(args))
	case "warning":
		fmt.Fprintf(os.Stderr, "%s:%d: warning: %s\n", name.file, name.line, tokensText(args))
		return nil
	case "pragma":
		return nil // all pragmas ignored (including once; headers use guards)
	case "line":
		return nil // we own line numbering
	default:
		return pp.errorf(name, "unknown preprocessing directive #%s", name.text)
	}
}

func tokensText(toks []ppTok) string {
	var b strings.Builder
	for i, t := range toks {
		if i > 0 && t.ws {
			b.WriteByte(' ')
		}
		b.WriteString(t.text)
	}
	return b.String()
}

func (pp *Preprocessor) include(dir ppTok, args []ppTok) error {
	if pp.depth >= maxIncludeDepth {
		return pp.errorf(dir, "#include nested too deeply")
	}
	var name string
	system := false
	switch {
	case len(args) == 1 && args[0].kind == ppString:
		var err error
		name, err = strconv.Unquote(args[0].text)
		if err != nil {
			name = strings.Trim(args[0].text, `"`)
		}
	case len(args) >= 2 && args[0].isPunct("<"):
		system = true
		var b strings.Builder
		for _, t := range args[1:] {
			if t.isPunct(">") {
				break
			}
			b.WriteString(t.text)
		}
		name = b.String()
	default:
		// The operand may itself be a macro.
		exp, err := pp.expandList(args)
		if err != nil {
			return err
		}
		if len(exp) == 1 && exp[0].kind == ppString {
			name, _ = strconv.Unquote(exp[0].text)
		} else {
			return pp.errorf(dir, "malformed #include")
		}
	}
	toks, err := resolveTokens(pp.resolver, name, system, filepath.Dir(dir.file))
	if err != nil {
		return pp.errorf(dir, "%v", err)
	}
	// The header's run ends in the marker that pops the include depth.
	pp.depth++
	pp.push(toks)
	return nil
}

func (pp *Preprocessor) define(dir ppTok, args []ppTok) error {
	if len(args) == 0 || args[0].kind != ppIdent {
		return pp.errorf(dir, "#define expects an identifier")
	}
	m := &Macro{Name: args[0].text}
	rest := args[1:]
	// Function-like only if '(' immediately follows the name (no space).
	if len(rest) > 0 && rest[0].isPunct("(") && !rest[0].ws {
		m.FuncLike = true
		n, err := pp.params(dir, m, rest)
		if err != nil {
			return err
		}
		rest = rest[n:]
	}
	// C11 §6.10.3.3:1: ## cannot begin or end a replacement list.
	if len(rest) > 0 && (rest[0].isPunct("##") || rest[len(rest)-1].isPunct("##")) {
		return pp.errorf(dir, "'##' cannot appear at either end of a macro expansion")
	}
	// C11 §6.10.3.2:1: in a function-like body, # must precede a parameter.
	if m.FuncLike {
		for i, t := range rest {
			if t.isPunct("#") && (i+1 == len(rest) || rest[i+1].kind != ppIdent || m.param(rest[i+1].text) < 0) {
				return pp.errorf(dir, "'#' is not followed by a macro parameter")
			}
		}
	}
	// Runs are never written, so the body can be a view of the line.
	m.Body = rest
	pp.macros[m.Name] = m
	return nil
}

// params parses the parameter list that opens rest into m and returns the
// number of tokens it spans, closing parenthesis included. Parameters are
// comma-separated, distinct (C11 §6.10.3:6), and a ... ends the list.
func (pp *Preprocessor) params(dir ppTok, m *Macro, rest []ppTok) (int, error) {
	wantName := true // next is a parameter (or ")" right after "(")
	for i := 1; i < len(rest); i++ {
		t := rest[i]
		switch {
		case t.isPunct(")"):
			if wantName && i > 1 {
				return 0, pp.errorf(dir, "expected parameter name in macro parameter list")
			}
			return i + 1, nil
		case m.Variadic && (t.kind == ppIdent || t.isPunct("...") || t.isPunct(",")):
			return 0, pp.errorf(dir, "expected ')' after \"...\" in macro parameter list")
		case t.kind == ppIdent, t.isPunct("..."):
			if !wantName {
				return 0, pp.errorf(dir, "expected comma in macro parameter list")
			}
			if t.kind == ppIdent {
				if m.param(t.text) >= 0 {
					return 0, pp.errorf(dir, "duplicate macro parameter %q", t.text)
				}
				m.Params = append(m.Params, t.text)
			} else {
				m.Variadic = true
			}
			wantName = false
		case t.isPunct(","):
			if wantName {
				return 0, pp.errorf(dir, "expected parameter name in macro parameter list")
			}
			wantName = true
		default:
			return 0, pp.errorf(dir, "malformed macro parameter list")
		}
	}
	return 0, pp.errorf(dir, "unterminated macro parameter list")
}

// emit writes one token to the output, inserting newlines or line markers to
// keep output lines in sync with the token's origin.
func (pp *Preprocessor) emit(t ppTok) {
	if t.file != pp.outFile || t.line < pp.outLine || t.line > pp.outLine+8 {
		if pp.outLine != 0 {
			pp.out.WriteByte('\n')
		}
		// # <line> "<file>"
		b := append(pp.scratch[:0], "# "...)
		b = strconv.AppendInt(b, int64(t.line), 10)
		b = append(b, ' ')
		b = strconv.AppendQuote(b, t.file)
		b = append(b, '\n')
		pp.out.Write(b)
		pp.outFile = t.file
		pp.outLine = t.line
	}
	for pp.outLine < t.line {
		pp.out.WriteByte('\n')
		pp.outLine++
	}
	pp.out.WriteByte(' ')
	pp.out.WriteString(t.text)
}
