package xdm

import "fmt"

// ErrCode is an XQuery error code (W3C err: codes where applicable).
type ErrCode string

// Error codes used across the engines.
const (
	ErrType     ErrCode = "XPTY0004" // static/dynamic type error
	ErrEBV      ErrCode = "FORG0006" // invalid argument (effective boolean value)
	ErrCast     ErrCode = "FORG0001" // invalid value for cast
	ErrCtxItem  ErrCode = "XPDY0002" // context item undefined
	ErrUndefVar ErrCode = "XPST0008" // undefined variable/function
	ErrArity    ErrCode = "XPST0017" // wrong number of arguments
	ErrDivZero  ErrCode = "FOAR0001" // division by zero
	ErrOverflow ErrCode = "FOAR0002" // numeric operation overflow
	ErrDoc      ErrCode = "FODC0002" // error retrieving resource
	ErrUserFail ErrCode = "FOER0000" // fn:error
	ErrIFP      ErrCode = "IFPX0001" // inflationary fixed point diverged / misuse
	ErrSyntax   ErrCode = "XPST0003" // grammar error
	ErrCard     ErrCode = "XPTY0005" // cardinality violation

	// Resource-budget codes: evaluation was cut off by a caller-imposed
	// limit, not by a defect in the query. The µ/µ∆ operators deliberately
	// admit unbounded recursion — termination and cost are the user's
	// problem — so a serving layer needs typed, machine-checkable ways to
	// say "this request exceeded its allowance" (see Budget).
	ErrDeadline ErrCode = "IFPX0002" // evaluation deadline exceeded
	ErrRounds   ErrCode = "IFPX0003" // fixpoint round budget exhausted
	ErrRows     ErrCode = "IFPX0004" // row-materialization budget exhausted
)

// IsBudget reports whether err is a resource-budget truncation: the
// evaluation was cut off by a deadline, round, or row budget rather than
// failing on its own terms. Budget errors unwind with partial fixpoint
// statistics, so servers can report how far a shed query got.
func IsBudget(err error) bool {
	switch CodeOf(err) {
	case ErrDeadline, ErrRounds, ErrRows:
		return true
	}
	return false
}

// Error is an XQuery evaluation or analysis error carrying a W3C-style code.
type Error struct {
	Code ErrCode
	Msg  string
	// NotFound marks fn:doc resolution misses — the URI is simply unknown
	// to the resolver, as opposed to a retrieval or parse failure — so
	// chained resolvers know they may fall through to the next source.
	NotFound bool
}

// NewError builds an Error with the given code and message.
func NewError(code ErrCode, msg string) *Error { return &Error{Code: code, Msg: msg} }

// Errorf builds an Error with a formatted message.
func Errorf(code ErrCode, format string, args ...any) *Error {
	return &Error{Code: code, Msg: fmt.Sprintf(format, args...)}
}

// NotFoundf builds a document-retrieval Error marked as a resolution miss.
func NotFoundf(format string, args ...any) *Error {
	return &Error{Code: ErrDoc, Msg: fmt.Sprintf(format, args...), NotFound: true}
}

// IsNotFound reports whether err is a fn:doc resolution miss.
func IsNotFound(err error) bool {
	xe, ok := err.(*Error)
	return ok && xe.NotFound
}

// Error implements the error interface.
func (e *Error) Error() string { return fmt.Sprintf("[%s] %s", e.Code, e.Msg) }

// CodeOf extracts the error code from an error, or "" if it is not an
// XQuery Error.
func CodeOf(err error) ErrCode {
	if xe, ok := err.(*Error); ok {
		return xe.Code
	}
	return ""
}
