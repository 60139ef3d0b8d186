// External test package: cheaders imports cpp, so seeding the fuzzer with
// the built-in libc headers requires breaking the would-be import cycle.
package cpp_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cheaders"
	"repro/internal/cpp"
)

// fuzzSeeds seed FuzzCPP; the corpus golden preprocesses them too.
var fuzzSeeds = []string{
	"#define X(a,b) a##b\nint v = X(1,2);\n",
	"#include <stdio.h>\nint main(void){ printf(\"hi\"); }\n",
	"#if defined(A) && B\n#elif !C\n#else\n#endif\n",
	"#define REC REC x\nREC\n",
	"#define STR(x) #x\nchar *s = STR(a \"b\" c);\n",
	"#ifdef UNCLOSED\n",
	"#define\n#undef\n#include\n#if\n",
	"#line 42 \"other.c\"\n__LINE__ __FILE__\n",
}

// FuzzCPP asserts the preprocessor's crash-freedom contract: any input —
// unbalanced conditionals, self-referential macros, truncated directives —
// either expands or returns an error, never panics. Includes resolve only
// against the built-in libc headers (no filesystem access while fuzzing).
//
// It also asserts that the header tokens cheaders.Resolver scans once and
// shares stay read-only: output and error must be identical to a run
// whose resolver serves the same headers as text, scanned on every
// include.
func FuzzCPP(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		out, err := cpp.New(cheaders.Resolver()).Run(src, "fuzz.c")
		if err == nil && strings.Contains(out, "\x00") && !strings.Contains(src, "\x00") {
			t.Error("preprocessor invented NUL bytes")
		}
		textOut, textErr := cpp.New(textResolver{}).Run(src, "fuzz.c")
		if out != textOut || errString(err) != errString(textErr) {
			t.Errorf("shared header tokens: %q, %v; headers scanned per include: %q, %v", out, err, textOut, textErr)
		}
	})
}

// textResolver serves the built-in headers through Resolve alone, so the
// preprocessor scans them on every include.
type textResolver struct{}

func (textResolver) Resolve(name string, system bool, fromDir string) (string, string, error) {
	if c, ok := cheaders.Headers[name]; ok {
		return c, name, nil
	}
	return "", "", fmt.Errorf("include file %q not found", name)
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
