package auth

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"syscall"
)

// Sentinel errors returned by the server. Every error the server
// produces wraps one of these (or is a plain *AuthError with a code
// that has no sentinel), so errors.Is keeps working across the typed
// taxonomy and across the TCP transport.
var (
	ErrUnknownClient    = errors.New("auth: unknown client")
	ErrAlreadyEnrolled  = errors.New("auth: client already enrolled")
	ErrUnknownChallenge = errors.New("auth: unknown or expired challenge")
	ErrExhausted        = errors.New("auth: challenge space exhausted for this voltage")
	ErrNoRemapPending   = errors.New("auth: no remap in progress")
	ErrBadPlane         = errors.New("auth: voltage plane not enrolled")
	ErrUnavailable      = errors.New("auth: server temporarily unavailable")
)

// ErrorCode classifies an authentication-layer failure. Codes are
// stable protocol identifiers: they travel over the wire in error
// messages so a remote client reconstructs the same typed error an
// in-process caller gets.
type ErrorCode string

const (
	// CodeUnknownClient: the client id is not enrolled.
	CodeUnknownClient ErrorCode = "unknown_client"
	// CodeAlreadyEnrolled: enrollment for an id that already exists.
	CodeAlreadyEnrolled ErrorCode = "already_enrolled"
	// CodeUnknownChallenge: the challenge id is unknown, already
	// consumed, or expired.
	CodeUnknownChallenge ErrorCode = "unknown_challenge"
	// CodeExhausted: the client's CRP space at the voltage is spent.
	CodeExhausted ErrorCode = "exhausted"
	// CodeNoRemapPending: CompleteRemap without a BeginRemap.
	CodeNoRemapPending ErrorCode = "no_remap_pending"
	// CodeBadPlane: the requested voltage plane is not enrolled.
	CodeBadPlane ErrorCode = "bad_plane"
	// CodeInvalidRequest: a structurally invalid request (wrong
	// response length, reserved plane for ordinary auth, bad
	// enrollment input, malformed wire message).
	CodeInvalidRequest ErrorCode = "invalid_request"
	// CodeCanceled: the caller's context was cancelled or its deadline
	// expired before the operation completed.
	CodeCanceled ErrorCode = "canceled"
	// CodeUnavailable: the server is transiently unable to serve the
	// request — it is shedding load (in-flight transaction cap,
	// connection cap) or its durability journal briefly failed. The
	// request itself was well-formed; back off and retry.
	CodeUnavailable ErrorCode = "unavailable"
	// CodeInternal: an unexpected server-side failure.
	CodeInternal ErrorCode = "internal"
)

// codeSentinels maps wire codes back to the package sentinels, so a
// remote *AuthError satisfies the same errors.Is checks as a local
// one. Codes without a sentinel (invalid_request, canceled, internal)
// reconstruct as bare AuthErrors.
var codeSentinels = map[ErrorCode]error{
	CodeUnknownClient:    ErrUnknownClient,
	CodeAlreadyEnrolled:  ErrAlreadyEnrolled,
	CodeUnknownChallenge: ErrUnknownChallenge,
	CodeExhausted:        ErrExhausted,
	CodeNoRemapPending:   ErrNoRemapPending,
	CodeBadPlane:         ErrBadPlane,
	CodeUnavailable:      ErrUnavailable,
}

// AuthError is the typed error every auth-layer operation returns on
// failure: a stable code, the client the operation concerned (empty
// for pre-lookup failures), and the wrapped cause. Unwrap exposes the
// cause so errors.Is(err, ErrUnknownClient) and friends work whether
// the error crossed the wire or not.
type AuthError struct {
	Code     ErrorCode
	ClientID ClientID
	Err      error
}

// Error renders the cause followed by the structured fields.
func (e *AuthError) Error() string {
	msg := string(e.Code)
	if e.Err != nil {
		msg = e.Err.Error()
	}
	if e.ClientID != "" {
		return fmt.Sprintf("%s [code=%s client=%s]", msg, e.Code, e.ClientID)
	}
	return fmt.Sprintf("%s [code=%s]", msg, e.Code)
}

// Unwrap exposes the wrapped cause.
func (e *AuthError) Unwrap() error { return e.Err }

// authErr builds a typed error wrapping cause.
func authErr(code ErrorCode, id ClientID, cause error) *AuthError {
	return &AuthError{Code: code, ClientID: id, Err: cause}
}

// authErrf builds a typed error around a formatted one-off cause.
func authErrf(code ErrorCode, id ClientID, format string, args ...any) *AuthError {
	return &AuthError{Code: code, ClientID: id, Err: fmt.Errorf(format, args...)}
}

// ctxErr converts a cancelled/expired context into the typed taxonomy
// (nil if the context is still live). errors.Is(err, context.Canceled)
// and errors.Is(err, context.DeadlineExceeded) still hold through the
// wrap.
func ctxErr(ctx context.Context, id ClientID) error {
	if err := ctx.Err(); err != nil {
		return &AuthError{Code: CodeCanceled, ClientID: id, Err: err}
	}
	return nil
}

// CodeOf extracts the ErrorCode from any error produced by this
// package, or CodeInternal when the error carries no code.
func CodeOf(err error) ErrorCode {
	var ae *AuthError
	if errors.As(err, &ae) {
		return ae.Code
	}
	switch {
	case errors.Is(err, ErrUnknownClient):
		return CodeUnknownClient
	case errors.Is(err, ErrAlreadyEnrolled):
		return CodeAlreadyEnrolled
	case errors.Is(err, ErrUnknownChallenge):
		return CodeUnknownChallenge
	case errors.Is(err, ErrExhausted):
		return CodeExhausted
	case errors.Is(err, ErrNoRemapPending):
		return CodeNoRemapPending
	case errors.Is(err, ErrBadPlane):
		return CodeBadPlane
	case errors.Is(err, ErrUnavailable):
		return CodeUnavailable
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return CodeCanceled
	}
	return CodeInternal
}

// remoteCause is the client-side reconstruction of a server error
// that arrived over the wire: it preserves the server's message while
// unwrapping to the sentinel matching the transported code.
type remoteCause struct {
	msg      string
	sentinel error
}

func (r *remoteCause) Error() string { return r.msg }
func (r *remoteCause) Unwrap() error { return r.sentinel }

// unavailableErr wraps a transient server-side failure (journal
// append failure, load shed) so that errors.Is(err, ErrUnavailable)
// holds locally exactly as it does after a wire round-trip, and
// Retryable classifies the error as worth retrying. A cause that is
// already an unavailable AuthError (the cluster journal's quorum
// timeout) comes back unchanged, so the code is stated once.
func unavailableErr(id ClientID, cause error) *AuthError {
	if ae, ok := cause.(*AuthError); ok && ae.Code == CodeUnavailable && errors.Is(ae, ErrUnavailable) {
		return ae
	}
	return &AuthError{Code: CodeUnavailable, ClientID: id, Err: fmt.Errorf("%w: %w", ErrUnavailable, cause)}
}

// Retryable reports whether a failed transaction is safe and useful
// to retry from scratch. The classification is over the ErrorCode
// taxonomy plus transport-level failures:
//
//   - unavailable is the server explicitly asking for a backed-off
//     retry (load shedding, transient journal failure);
//   - every other typed code is a protocol-level verdict that a
//     retry cannot change — in particular unknown_challenge (a burned
//     or replayed challenge MUST NOT be retried: its pairs are dead)
//     and canceled (the caller's own context ended the attempt);
//   - untyped transport failures (resets, dropped connections, torn
//     reads) are retryable on a fresh connection: the transaction
//     never completed, and every retry starts a whole new transaction
//     with a fresh challenge, never re-sending a response.
//
// A retry must always be a full new transaction; WireClient never
// resumes a half-finished exchange.
func Retryable(err error) bool {
	if err == nil {
		return false
	}
	var ae *AuthError
	if errors.As(err, &ae) {
		switch ae.Code {
		case CodeUnavailable:
			return true
		case CodeUnknownClient, CodeAlreadyEnrolled, CodeUnknownChallenge,
			CodeExhausted, CodeNoRemapPending, CodeBadPlane,
			CodeInvalidRequest, CodeCanceled, CodeInternal:
			return false
		}
		// A code this build does not know (newer peer): the
		// conservative direction is no retry.
		return false
	}
	// Untyped errors: transport failures only. Anything else (device
	// faults, encoding bugs) is not fixed by resending.
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, io.ErrClosedPipe) || errors.Is(err, net.ErrClosed) ||
		errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.EPIPE) ||
		errors.Is(err, syscall.ECONNREFUSED) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne)
}

// errorFromWire rebuilds the typed error a server sent over the TCP
// transport. Messages from pre-taxonomy servers (no code) degrade to
// an untyped error carrying the text.
func errorFromWire(code ErrorCode, clientID ClientID, msg string) error {
	if code == "" {
		//lint:ignore errtaxonomy pre-taxonomy peers send no code; there is nothing typed to rebuild
		return fmt.Errorf("auth: server error: %s", msg)
	}
	cause := error(errors.New(msg))
	if sentinel, ok := codeSentinels[code]; ok {
		cause = &remoteCause{msg: msg, sentinel: sentinel}
	}
	return &AuthError{Code: code, ClientID: clientID, Err: cause}
}
