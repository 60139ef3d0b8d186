// Package driver ties the frontend together: preprocess, parse, and
// type-check a C translation unit into a runnable sema.Program.
package driver

import (
	"fmt"

	"repro/internal/cheaders"
	"repro/internal/cpp"
	"repro/internal/ctypes"
	"repro/internal/fault"
	"repro/internal/parser"
	"repro/internal/sema"
)

// SiteCompile is the fault-injection site fired at the top of every
// frontend pass; the unit is the translation-unit file name.
var SiteCompile = fault.RegisterSite("driver.compile")

// Options configure compilation.
type Options struct {
	// Model selects the implementation-defined parameters (default LP64).
	Model *ctypes.Model
	// Includes resolves #include beyond the built-in libc headers.
	Includes cpp.Resolver
	// Defines are command-line style macro definitions ("NAME=VALUE").
	Defines []string
	// Injector, when set, fires the driver.compile fault site before the
	// frontend runs. It is deliberately NOT part of the cache key: fault
	// injection perturbs execution, not the compiled program.
	Injector *fault.Injector
}

// Compile preprocesses, parses, and type-checks one C source file. A panic
// anywhere in the frontend is contained and returned as a
// *fault.InternalError for stage "compile" — one broken translation unit
// must not take down a suite run.
func Compile(src, file string, opts Options) (prog *sema.Program, err error) {
	defer fault.Recover(fault.StageCompile, file, &err)
	if err := opts.Injector.Fire(SiteCompile, file); err != nil {
		return nil, err
	}
	model := opts.Model
	if model == nil {
		model = ctypes.LP64()
	}
	resolvers := cpp.ChainResolver{cheaders.Resolver()}
	if opts.Includes != nil {
		resolvers = append(resolvers, opts.Includes)
	}
	resolvers = append(resolvers, cpp.FSResolver{})
	pp := cpp.New(resolvers)
	for _, d := range opts.Defines {
		pp.Define(d)
	}
	expanded, err := pp.Run(src, file)
	if err != nil {
		return nil, fmt.Errorf("preprocess: %w", err)
	}
	tu, err := parser.Parse(expanded, file, model)
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	prog, err = sema.Check(tu, model)
	if err != nil {
		return nil, fmt.Errorf("typecheck: %w", err)
	}
	return prog, nil
}
