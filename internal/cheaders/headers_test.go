package cheaders_test

import (
	"strings"
	"testing"

	"repro/internal/cheaders"
	"repro/internal/interp"
)

// TestPrototypesMatchLibc: every prototype a header serves is exactly one
// interp.Libc row of that header, and every row's prototype is a line of
// its header.
func TestPrototypesMatchLibc(t *testing.T) {
	for h, text := range cheaders.Headers {
		for _, line := range strings.Split(text, "\n") {
			if strings.HasPrefix(line, "#") || !strings.HasSuffix(line, ");") {
				continue
			}
			n := 0
			for _, f := range interp.Libc {
				if f.Header == h && f.Proto == line {
					n++
				}
			}
			if n != 1 {
				t.Errorf("%s: prototype %q has %d Libc rows, want 1", h, line, n)
			}
		}
	}
	for _, f := range interp.Libc {
		if !strings.Contains("\n"+cheaders.Headers[f.Header], "\n"+f.Proto+"\n") {
			t.Errorf("Libc row %s: prototype %q is not a line of %s", f.Name, f.Proto, f.Header)
		}
	}
}
