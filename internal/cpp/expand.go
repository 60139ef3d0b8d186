package cpp

import (
	"fmt"
	"strconv"
	"strings"
)

// expandOne pops the next token from the worklist, fully macro-expands it
// and appends the tokens to emit to out. Function-like macro invocations
// may consume further tokens (including across newlines, per the
// standard).
func (pp *Preprocessor) expandOne(out []ppTok) ([]ppTok, error) {
	t, _ := pp.next()
	return pp.expandTok(t, out)
}

// expandTok expands t against the worklist, appending to out.
func (pp *Preprocessor) expandTok(t ppTok, out []ppTok) ([]ppTok, error) {
	if t.kind != ppIdent || t.hideset[t.text] {
		return append(out, t), nil
	}
	// Dynamic predefined macros.
	switch t.text {
	case "__LINE__":
		return append(out, ppTok{kind: ppNumber, text: strconv.Itoa(t.line), file: t.file, line: t.line, ws: t.ws}), nil
	case "__FILE__":
		return append(out, ppTok{kind: ppString, text: strconv.Quote(t.file), file: t.file, line: t.line, ws: t.ws}), nil
	case "__COUNTER__":
		pp.counter++
		return append(out, ppTok{kind: ppNumber, text: strconv.Itoa(pp.counter - 1), file: t.file, line: t.line, ws: t.ws}), nil
	}
	m, ok := pp.macros[t.text]
	if !ok {
		return append(out, t), nil
	}
	var body []ppTok
	if !m.FuncLike {
		body = substituteObject(m, t)
	} else {
		// Function-like: only expands if followed by '('.
		if !pp.nextIsLParen() {
			return append(out, t), nil
		}
		args, err := pp.gatherArgs(t, m)
		if err != nil {
			return out, err
		}
		if body, err = pp.substituteFunc(m, t, args); err != nil {
			return out, err
		}
	}
	if len(body) == 0 {
		return out, nil
	}
	// Rescan: the replacement list goes in front of the rest of the input.
	pp.push(body)
	return pp.expandOne(out)
}

// nextIsLParen reports whether the next significant token is '(', looking
// across runs.
func (pp *Preprocessor) nextIsLParen() bool {
	for i := len(pp.in) - 1; i >= pp.floor; i-- {
		for _, t := range pp.in[i] {
			if t.isPunct("\n") || t.kind == ppIncludeEnd {
				continue
			}
			return t.isPunct("(")
		}
	}
	return false
}

// gatherArgs consumes "( a1 , a2 , ... )" from the worklist. Commas inside
// nested parentheses do not separate arguments. A directive among the
// arguments is undefined (C11 §6.10.3:11) and diagnosed.
func (pp *Preprocessor) gatherArgs(inv ppTok, m *Macro) ([][]ppTok, error) {
	// Skip to and consume '('.
	for {
		t, ok := pp.next()
		if !ok || t.isPunct("(") {
			break
		}
		if t.kind == ppIncludeEnd {
			pp.depth--
		}
	}
	// The arguments' tokens go into one slice; ends[i] is where argument
	// i stops.
	var toks []ppTok
	var ends []int
	depth := 0
	for {
		t, ok := pp.next()
		switch {
		case !ok, t.kind == ppEOF:
			return nil, pp.errorf(inv, "unterminated invocation of macro %s", m.Name)
		case t.kind == ppIncludeEnd:
			pp.depth--
		case t.isPunct("\n"):
			// newlines inside macro args are whitespace
		case t.isPunct("#") && t.bol:
			return nil, pp.errorf(t, "preprocessing directive inside the arguments of macro %s", m.Name)
		case t.isPunct("("):
			depth++
			toks = append(toks, t)
		case t.isPunct(")"):
			if depth == 0 {
				return pp.splitArgs(inv, m, toks, append(ends, len(toks)))
			}
			depth--
			toks = append(toks, t)
		case t.isPunct(",") && depth == 0:
			if m.Variadic && len(ends) >= len(m.Params) {
				// Comma belongs to __VA_ARGS__.
				toks = append(toks, t)
				continue
			}
			ends = append(ends, len(toks))
		default:
			toks = append(toks, t)
		}
	}
}

// splitArgs cuts the gathered argument tokens at ends and checks the count
// against m.
func (pp *Preprocessor) splitArgs(inv ppTok, m *Macro, toks []ppTok, ends []int) ([][]ppTok, error) {
	// "f()" with no params means zero args.
	if len(ends) == 1 && len(toks) == 0 && len(m.Params) == 0 && !m.Variadic {
		return nil, nil
	}
	want := len(m.Params)
	if !m.Variadic && len(ends) != want {
		return nil, pp.errorf(inv, "macro %s expects %d arguments, got %d", m.Name, want, len(ends))
	}
	n := len(ends)
	if m.Variadic && n < want {
		// Allow empty __VA_ARGS__.
		n = want + 1
	}
	args := make([][]ppTok, n)
	start := 0
	for i, end := range ends {
		args[i] = toks[start:end:end]
		start = end
	}
	return args, nil
}

// expandList fully expands a detached token list (used for #if operands and
// macro arguments) without touching the main worklist: the list becomes
// the only run above a raised floor.
func (pp *Preprocessor) expandList(toks []ppTok) ([]ppTok, error) {
	floor := pp.floor
	pp.floor = len(pp.in)
	defer func() {
		pp.in = pp.in[:pp.floor]
		pp.floor = floor
	}()
	pp.push(toks)
	out := make([]ppTok, 0, len(toks))
	for {
		if _, ok := pp.peek(); !ok {
			return out, nil
		}
		var err error
		if out, err = pp.expandOne(out); err != nil {
			return nil, err
		}
	}
}

// param returns the index of the parameter called name (__VA_ARGS__ is
// the one after the named ones), or -1.
func (m *Macro) param(name string) int {
	for i, p := range m.Params {
		if p == name {
			return i
		}
	}
	if m.Variadic && name == "__VA_ARGS__" {
		return len(m.Params)
	}
	return -1
}

// substituteObject produces the replacement list of an object-like macro.
func substituteObject(m *Macro, inv ppTok) []ppTok {
	h := hider{inv: inv, name: m.Name}
	out := make([]ppTok, 0, len(m.Body))
	for i := 0; i < len(m.Body); i++ {
		t := m.Body[i]
		// Handle ## in object-like bodies.
		if i+2 < len(m.Body) && m.Body[i+1].isPunct("##") {
			out = append(out, h.relocate(pasteTokens(t, m.Body[i+2], inv)))
			i += 2
			continue
		}
		out = append(out, h.relocate(t))
	}
	return out
}

// substituteFunc produces the replacement list of a function-like macro
// invocation, applying # (stringize) and ## (paste). define has checked
// that every # precedes a parameter and that ## is not at either end.
func (pp *Preprocessor) substituteFunc(m *Macro, inv ppTok, args [][]ppTok) ([]ppTok, error) {
	argFor := func(i int) []ppTok {
		if i < len(args) {
			return args[i]
		}
		return nil
	}
	// Pre-expand each argument once (used where the param is not an operand
	// of # or ##).
	expandedArgs := make([][]ppTok, len(args))
	for i, a := range args {
		e, err := pp.expandList(a)
		if err != nil {
			return nil, err
		}
		expandedArgs[i] = e
	}
	expandedFor := func(i int) []ppTok {
		if i < len(expandedArgs) {
			return expandedArgs[i]
		}
		return nil
	}

	h := hider{inv: inv, name: m.Name}
	out := make([]ppTok, 0, len(m.Body))
	body := m.Body
	for i := 0; i < len(body); i++ {
		t := body[i]
		// Stringize: # param
		if t.isPunct("#") && i+1 < len(body) && body[i+1].kind == ppIdent {
			if pi := m.param(body[i+1].text); pi >= 0 {
				out = append(out, h.relocate(stringize(argFor(pi))))
				i++
				continue
			}
		}
		// Paste: X ## Y
		if i+2 < len(body) && body[i+1].isPunct("##") {
			var lhs, rhs []ppTok
			if pi := m.param(t.text); t.kind == ppIdent && pi >= 0 {
				lhs = argFor(pi)
			} else {
				lhs = body[i : i+1]
			}
			right := body[i+2]
			if pi := m.param(right.text); right.kind == ppIdent && pi >= 0 {
				rhs = argFor(pi)
			} else {
				rhs = body[i+2 : i+3]
			}
			switch {
			case len(lhs) == 0:
				out = h.relocateAll(out, rhs)
			case len(rhs) == 0:
				out = h.relocateAll(out, lhs)
			default:
				out = h.relocateAll(out, lhs[:len(lhs)-1])
				out = append(out, h.relocate(pasteTokens(lhs[len(lhs)-1], rhs[0], inv)))
				out = h.relocateAll(out, rhs[1:])
			}
			i += 2
			continue
		}
		// Plain parameter: substitute the pre-expanded argument.
		if t.kind == ppIdent {
			if pi := m.param(t.text); pi >= 0 {
				out = h.relocateAll(out, expandedFor(pi))
				continue
			}
		}
		out = append(out, h.relocate(t))
	}
	return out, nil
}

// hider stamps the tokens of one macro substitution with the invocation
// site's position and extends their hidesets with the macro being
// expanded and the invocation's own hideset. Hidesets are never mutated,
// so every token that brings no hideset of its own shares one.
type hider struct {
	inv  ppTok
	name string
	base map[string]bool // inv.hideset ∪ {name}, built on first use
}

func (h *hider) relocate(t ppTok) ppTok {
	t.file = h.inv.file
	t.line = h.inv.line
	t.bol = false
	if h.base == nil {
		h.base = make(map[string]bool, len(h.inv.hideset)+1)
		for n := range h.inv.hideset {
			h.base[n] = true
		}
		h.base[h.name] = true
	}
	if len(t.hideset) == 0 {
		t.hideset = h.base
		return t
	}
	hs := make(map[string]bool, len(t.hideset)+len(h.base))
	for n := range t.hideset {
		hs[n] = true
	}
	for n := range h.base {
		hs[n] = true
	}
	t.hideset = hs
	return t
}

func (h *hider) relocateAll(out, toks []ppTok) []ppTok {
	for _, t := range toks {
		out = append(out, h.relocate(t))
	}
	return out
}

// stringize implements the # operator.
func stringize(arg []ppTok) ppTok {
	var b strings.Builder
	for i, t := range arg {
		if i > 0 && t.ws {
			b.WriteByte(' ')
		}
		b.WriteString(t.text)
	}
	return ppTok{kind: ppString, text: strconv.Quote(b.String())}
}

// pasteTokens implements the ## operator by concatenating spellings and
// rescanning; if the result is not a single token it degrades to the raw
// concatenation as a single "other" token (the behavior is undefined in C,
// C11 §6.10.3.3:3 — we keep going so the real lexer reports it).
func pasteTokens(a, b ppTok, inv ppTok) ppTok {
	text := a.text + b.text
	sc := newPPScanner(text, inv.file)
	t := sc.next()
	rest := sc.next()
	if rest.kind == ppEOF && t.kind != ppEOF {
		t.file = inv.file
		t.line = inv.line
		return t
	}
	return ppTok{kind: ppOther, text: text, file: inv.file, line: inv.line}
}

// evalCondition evaluates a #if/#elif controlling expression.
func (pp *Preprocessor) evalCondition(toks []ppTok, dir ppTok) (int64, error) {
	// Replace defined X / defined(X) before macro expansion.
	var pre []ppTok
	for i := 0; i < len(toks); i++ {
		t := toks[i]
		if t.isIdent("defined") {
			var name string
			if i+1 < len(toks) && toks[i+1].kind == ppIdent {
				name = toks[i+1].text
				i++
			} else if i+3 < len(toks) && toks[i+1].isPunct("(") && toks[i+2].kind == ppIdent && toks[i+3].isPunct(")") {
				name = toks[i+2].text
				i += 3
			} else {
				return 0, pp.errorf(dir, "malformed defined()")
			}
			val := "0"
			if _, ok := pp.macros[name]; ok {
				val = "1"
			}
			pre = append(pre, ppTok{kind: ppNumber, text: val, file: t.file, line: t.line})
			continue
		}
		pre = append(pre, t)
	}
	exp, err := pp.expandList(pre)
	if err != nil {
		return 0, err
	}
	// Remaining identifiers evaluate to 0 (C11 §6.10.1:4).
	ev := &condEval{toks: exp, pp: pp, dir: dir}
	v, err := ev.parseExpr(0)
	if err != nil {
		return 0, err
	}
	if ev.i < len(ev.toks) {
		return 0, pp.errorf(dir, "trailing tokens in #if expression")
	}
	return v, nil
}

// condEval is a precedence-climbing evaluator for #if expressions.
type condEval struct {
	toks []ppTok
	i    int
	pp   *Preprocessor
	dir  ppTok
}

func (ev *condEval) peek() ppTok {
	if ev.i >= len(ev.toks) {
		return ppTok{kind: ppEOF}
	}
	return ev.toks[ev.i]
}

func (ev *condEval) next() ppTok {
	t := ev.peek()
	ev.i++
	return t
}

var condPrec = map[string]int{
	"||": 1, "&&": 2, "|": 3, "^": 4, "&": 5,
	"==": 6, "!=": 6, "<": 7, ">": 7, "<=": 7, ">=": 7,
	"<<": 8, ">>": 8, "+": 9, "-": 9, "*": 10, "/": 10, "%": 10,
}

func (ev *condEval) parseExpr(minPrec int) (int64, error) {
	lhs, err := ev.parseUnary()
	if err != nil {
		return 0, err
	}
	for {
		t := ev.peek()
		if t.kind != ppPunct {
			break
		}
		if t.text == "?" && minPrec == 0 {
			ev.next()
			thenV, err := ev.parseExpr(0)
			if err != nil {
				return 0, err
			}
			if !ev.peek().isPunct(":") {
				return 0, ev.pp.errorf(ev.dir, "expected : in #if conditional")
			}
			ev.next()
			elseV, err := ev.parseExpr(0)
			if err != nil {
				return 0, err
			}
			if lhs != 0 {
				lhs = thenV
			} else {
				lhs = elseV
			}
			continue
		}
		prec, ok := condPrec[t.text]
		if !ok || prec < minPrec {
			break
		}
		ev.next()
		// Short-circuit.
		if t.text == "||" && lhs != 0 {
			if _, err := ev.parseExpr(prec + 1); err != nil {
				return 0, err
			}
			lhs = 1
			continue
		}
		if t.text == "&&" && lhs == 0 {
			if _, err := ev.parseExpr(prec + 1); err != nil {
				return 0, err
			}
			lhs = 0
			continue
		}
		rhs, err := ev.parseExpr(prec + 1)
		if err != nil {
			return 0, err
		}
		lhs, err = ev.apply(t.text, lhs, rhs)
		if err != nil {
			return 0, err
		}
	}
	return lhs, nil
}

func (ev *condEval) apply(op string, a, b int64) (int64, error) {
	btoi := func(b bool) int64 {
		if b {
			return 1
		}
		return 0
	}
	switch op {
	case "||":
		return btoi(a != 0 || b != 0), nil
	case "&&":
		return btoi(a != 0 && b != 0), nil
	case "|":
		return a | b, nil
	case "^":
		return a ^ b, nil
	case "&":
		return a & b, nil
	case "==":
		return btoi(a == b), nil
	case "!=":
		return btoi(a != b), nil
	case "<":
		return btoi(a < b), nil
	case ">":
		return btoi(a > b), nil
	case "<=":
		return btoi(a <= b), nil
	case ">=":
		return btoi(a >= b), nil
	case "<<":
		return a << (uint64(b) & 63), nil
	case ">>":
		return a >> (uint64(b) & 63), nil
	case "+":
		return a + b, nil
	case "-":
		return a - b, nil
	case "*":
		return a * b, nil
	case "/":
		if b == 0 {
			return 0, ev.pp.errorf(ev.dir, "division by zero in #if")
		}
		return a / b, nil
	case "%":
		if b == 0 {
			return 0, ev.pp.errorf(ev.dir, "division by zero in #if")
		}
		return a % b, nil
	}
	return 0, ev.pp.errorf(ev.dir, "unknown operator %q in #if", op)
}

func (ev *condEval) parseUnary() (int64, error) {
	t := ev.next()
	switch {
	case t.isPunct("!"):
		v, err := ev.parseUnary()
		if err != nil {
			return 0, err
		}
		if v == 0 {
			return 1, nil
		}
		return 0, nil
	case t.isPunct("-"):
		v, err := ev.parseUnary()
		return -v, err
	case t.isPunct("+"):
		return ev.parseUnary()
	case t.isPunct("~"):
		v, err := ev.parseUnary()
		return ^v, err
	case t.isPunct("("):
		v, err := ev.parseExpr(0)
		if err != nil {
			return 0, err
		}
		if !ev.peek().isPunct(")") {
			return 0, ev.pp.errorf(ev.dir, "missing ) in #if expression")
		}
		ev.next()
		return v, nil
	case t.kind == ppNumber:
		return parsePPNumber(t.text)
	case t.kind == ppChar:
		return parsePPChar(t.text)
	case t.kind == ppIdent:
		return 0, nil // undefined identifiers are 0
	case t.kind == ppEOF:
		return 0, ev.pp.errorf(ev.dir, "missing operand in #if expression")
	}
	return 0, ev.pp.errorf(ev.dir, "unexpected token %q in #if expression", t.text)
}

func parsePPNumber(text string) (int64, error) {
	s := strings.TrimRight(text, "uUlL")
	v, err := strconv.ParseUint(s, 0, 64)
	if err != nil {
		return 0, fmt.Errorf("malformed integer %q in #if", text)
	}
	return int64(v), nil
}

func parsePPChar(text string) (int64, error) {
	s := strings.TrimPrefix(text, "L")
	if len(s) >= 3 && s[0] == '\'' && s[len(s)-1] == '\'' {
		body := s[1 : len(s)-1]
		if len(body) == 1 {
			return int64(body[0]), nil
		}
		if len(body) == 2 && body[0] == '\\' {
			switch body[1] {
			case 'n':
				return '\n', nil
			case 't':
				return '\t', nil
			case '0':
				return 0, nil
			case 'r':
				return '\r', nil
			case '\\', '\'', '"':
				return int64(body[1]), nil
			}
		}
	}
	return 0, fmt.Errorf("unsupported character constant %q in #if", text)
}
