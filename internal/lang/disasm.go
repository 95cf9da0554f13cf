package lang

// Disassembly of the bytecode back-end for p2gc -disasm and the -check
// report.

import "repro/internal/core"

// Listing is the lowering result for one kernel: an annotated bytecode
// listing.
type Listing struct {
	Kernel string
	// Fallback is always false: every kernel Compile accepts is lowered to
	// bytecode. It is kept for callers that count fallback kernels.
	Fallback     bool
	Instructions int    // bytecode length
	Text         string // annotated listing
}

// Disassemble compiles kernel-language source exactly as Compile does and
// returns per-kernel bytecode listings in declaration order. It fails with
// the error Compile would return.
func Disassemble(name, src string) ([]Listing, error) {
	var out []Listing
	_, err := compile(name, src, func(k *KernelDef, timers map[string]bool, fields map[string]FieldDecl) (func(*core.Ctx) error, error) {
		bp, err := lowerKernelBody(k, timers, fields)
		if err != nil {
			return nil, err
		}
		names := make([]string, len(k.Locals))
		for j, l := range k.Locals {
			names[j] = l.Name
		}
		out = append(out, Listing{Kernel: k.Name, Instructions: len(bp.code), Text: bp.disasm(names)})
		return bp.body(), nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
