package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// Key builds a canonical cache key from a scope label and the values that
// define a computation. Two deeply-equal values always produce the same
// key: Go's JSON encoder is canonical for a fixed type — struct fields
// marshal in declaration order and maps with sorted keys — so equality of
// values implies equality of bytes, and the bytes are hashed. The scope
// label keeps unrelated computations over coincidentally-equal inputs
// (e.g. a solve and a simulation of the same spec) in separate key spaces.
//
// Values containing NaN/Inf floats or other non-marshalable content
// return an error; callers should then skip memoization for that job
// rather than risk a collision.
func Key(scope string, parts ...any) (string, error) {
	h := sha256.New()
	io.WriteString(h, scope)
	h.Write([]byte{0})
	enc := json.NewEncoder(h)
	for _, p := range parts {
		if err := enc.Encode(p); err != nil {
			return "", fmt.Errorf("sweep: key for scope %q: %w", scope, err)
		}
	}
	return scope + ":" + hex.EncodeToString(h.Sum(nil)[:16]), nil
}

// KeyTag shortens a key ("scope:hexdigest") to its last 8 hex digits —
// enough to disambiguate trace-track labels without drowning the timeline
// in full digests.
func KeyTag(key string) string {
	if i := strings.LastIndexByte(key, ':'); i >= 0 {
		key = key[i+1:]
	}
	if len(key) > 8 {
		key = key[len(key)-8:]
	}
	return key
}

// MustKey is Key for values statically known to be marshalable; it panics
// on error and exists for literal grid definitions.
func MustKey(scope string, parts ...any) string {
	k, err := Key(scope, parts...)
	if err != nil {
		panic(err)
	}
	return k
}
