package serve

import "errors"

// Typed sentinels for the serving layer. Handlers map these onto HTTP
// statuses (see httpStatus in service.go); tests and embedding callers
// match them with errors.Is.
var (
	// ErrCacheAdmission rejects an evaluation-key blob whose wire size
	// alone exceeds the cache's byte budget — detected from the blob
	// header before any payload-proportional work (HTTP 413).
	ErrCacheAdmission = errors.New("serve: evaluation-key blob exceeds the cache byte budget")

	// ErrCachePressure means the blob fits the budget but every resident
	// entry is pinned by an in-flight request, so nothing can be evicted to
	// make room right now (HTTP 503 + Retry-After; transient).
	ErrCachePressure = errors.New("serve: evaluation-key cache is fully pinned; retry")

	// ErrOverloaded is the backpressure signal: the in-flight request
	// count reached max-inflight (HTTP 429 + Retry-After).
	ErrOverloaded = errors.New("serve: request queue full")

	// ErrUnknownSession means the session id (or its key-cache entry) is
	// not registered (HTTP 404).
	ErrUnknownSession = errors.New("serve: unknown session")

	// ErrDraining rejects new sessions once shutdown has begun (HTTP 503).
	ErrDraining = errors.New("serve: draining")
)
