// Package undefc is a semantics-based undefinedness checker for C — a Go
// reproduction of "Defining the Undefinedness of C" (Ellison & Roșu). It
// compiles C99/C11 translation units through a from-scratch preprocessor,
// parser, and type checker, then executes them under an operational
// semantics engineered so that undefined programs are caught rather than
// given meaning.
//
// Quick start:
//
//	res := undefc.RunSource(`
//	    #include <stdio.h>
//	    int main(void) { int x = 0; return (x = 1) + (x = 2); }
//	`, "unseq.c", undefc.Options{})
//	if res.UB != nil {
//	    fmt.Print(res.UB.Report()) // kcc-style error report
//	}
//
// See internal/interp for the dynamic semantics, internal/ub for the
// catalog of 221 undefined behaviors, and internal/tools for the baseline
// analyzers the paper compares against.
package undefc

import (
	"repro/internal/cpp"
	"repro/internal/ctypes"
	"repro/internal/driver"
	"repro/internal/interp"
	"repro/internal/sema"
	"repro/internal/ub"
)

// Options configure compilation and execution.
type Options struct {
	// Model selects the implementation-defined parameters (default LP64,
	// the model of the paper's experiments).
	Model *ctypes.Model
	// Includes resolves #include beyond the built-in libc headers.
	Includes cpp.Resolver
	// Defines are command-line style macro definitions ("NAME=VALUE").
	Defines []string
	// Exec holds the interpreter options (output, scheduler, budgets).
	Exec interp.Options
}

// Result is re-exported from the interpreter.
type Result = interp.Result

// Program is a compiled, checked translation unit.
type Program = sema.Program

// Compile preprocesses, parses, and type-checks one C source file.
func Compile(src, file string, opts Options) (*Program, error) {
	return driver.Compile(src, file, driver.Options{
		Model:    opts.Model,
		Includes: opts.Includes,
		Defines:  opts.Defines,
	})
}

// Run executes a compiled program.
func Run(prog *Program, opts Options) Result {
	return interp.Run(prog, opts.Exec)
}

// RunSource compiles and runs src in one step. Compilation failures are
// reported through Result.Err; statically detected undefined behavior is
// reported through Result.UB (translation may terminate on undefined
// programs, C11 §3.4.3).
func RunSource(src, file string, opts Options) Result {
	prog, err := Compile(src, file, opts)
	if err != nil {
		return Result{ExitCode: 1, Err: err}
	}
	if len(prog.StaticUB) > 0 {
		return Result{ExitCode: 1, UB: prog.StaticUB[0]}
	}
	return interp.Run(prog, opts.Exec)
}

// Catalog re-exports the undefined-behavior catalog.
func Catalog() []*ub.Behavior { return ub.Catalog }
