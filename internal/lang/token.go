// Package lang implements the P2G kernel language of the paper's figure 5:
// a lexer, parser, semantic analysis and a compiler that lowers programs to
// the core program model, with the C-like native code blocks lowered to
// register bytecode run by a VM.
//
// The paper's prototype compiled kernel programs to C++ and linked the
// native blocks with gcc; the language semantics — field and kernel
// declarations, fetch/store statements, aging, implicit parallelism — are
// unchanged here, only the execution vehicle of the block bodies differs
// (see DESIGN.md, substitution table).
package lang

import "fmt"

// TokenKind enumerates lexical token types.
type TokenKind uint8

// Token kinds.
const (
	TEOF TokenKind = iota
	TIdent
	TInt
	TFloat
	TString
	TPunct      // single/multi char operators and punctuation
	TBlockStart // %{
	TBlockEnd   // %}
)

// Token is one lexical token with its source position.
type Token struct {
	Kind TokenKind
	Text string
	Line int
	Col  int
}

func (t Token) String() string {
	switch t.Kind {
	case TEOF:
		return "end of file"
	case TBlockStart:
		return "%{"
	case TBlockEnd:
		return "%}"
	case TString:
		return fmt.Sprintf("%q", t.Text)
	default:
		return fmt.Sprintf("%q", t.Text)
	}
}

// Error is a positioned kernel-language error.
type Error struct {
	Line, Col int
	Msg       string
}

func (e *Error) Error() string {
	return fmt.Sprintf("%d:%d: %s", e.Line, e.Col, e.Msg)
}

func errAt(tok Token, format string, args ...any) error {
	return &Error{Line: tok.Line, Col: tok.Col, Msg: fmt.Sprintf(format, args...)}
}
