package suite

import (
	"testing"

	"repro/internal/interp"
)

// TestAutoIncludes: a snippet calling one library function gets exactly
// the header that declares it (isupper, islower and atol included, which
// hand-kept name lists once missed), and macros and typedefs count too.
func TestAutoIncludes(t *testing.T) {
	cases := map[string]string{
		"FILE *f = stdout;":    "#include <stdio.h>\n",
		"int m = INT_MAX;":     "#include <limits.h>\n",
		"double d = DBL_MAX;":  "#include <float.h>\n",
		"int freed = 0, abs_;": "",
	}
	for _, f := range interp.Libc {
		if f.Header != "assert.h" { // not added automatically
			cases["n += "+f.Name+"(x);"] = "#include <" + f.Header + ">\n"
		}
	}
	for code, want := range cases {
		if got := autoIncludes(code); got != want {
			t.Errorf("autoIncludes(%q) = %q, want %q", code, got, want)
		}
	}
}
