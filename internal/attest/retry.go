package attest

import (
	"errors"
	"fmt"
	"time"

	"sgxnet/internal/core"
	"sgxnet/internal/netsim"
	"sgxnet/internal/obs"
)

// Retry driver for remote attestation under a faulty network. The paper's
// 9-message flow assumes every message arrives; against the adversary's
// residual powers — delay, loss, reordering, denial of service — the
// challenger needs deadlines and bounded retries. Each retry restarts the
// whole protocol on a fresh connection with a fresh nonce (partial runs
// cannot be resumed: the quote binds the nonce), and each charges the
// challenger enclave's meter, so robustness shows up in the cost tables
// rather than looking free.

// RetryPolicy bounds the attestation retry loop. The zero policy is the
// seed's behaviour: one attempt, blocking receives, no sleep.
type RetryPolicy struct {
	// Attempts is the total number of protocol runs tried (first attempt
	// included) before giving up. Zero or less means one.
	Attempts int

	// RecvTimeout is the deadline on each untrusted receive in the
	// driver; it is also the natural value for the server-side shim's
	// SetRecvTimeout. Zero blocks forever (the pre-hardening behavior).
	RecvTimeout time.Duration

	// Backoff is the sleep before the second attempt; it doubles per
	// retry, capped at BackoffMax. Zero means 10ms and 200ms.
	Backoff    time.Duration
	BackoffMax time.Duration
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.Attempts <= 0 {
		p.Attempts = 1
	}
	if p.Backoff <= 0 {
		p.Backoff = 10 * time.Millisecond
	}
	if p.BackoffMax <= 0 {
		p.BackoffMax = 200 * time.Millisecond
	}
	return p
}

// Pause sleeps out the backoff before retry n (n >= 1): Backoff,
// doubled for every further retry and capped at BackoffMax. Every retry
// loop in the repository waits here, so this is the one wall-clock
// sleep a virtual clock has to replace.
func (p RetryPolicy) Pause(n int) {
	p = p.withDefaults()
	d := p.Backoff
	for i := 1; i < n; i++ {
		if d *= 2; d > p.BackoffMax {
			d = p.BackoffMax
			break
		}
	}
	time.Sleep(d)
}

// Transient reports whether an attestation failure is worth retrying.
// Policy rejections are final — the peer's build is not on the whitelist,
// and dialing again will not change its measurement. Everything else
// (timeouts, closed connections, crashed hosts, corrupted or truncated
// messages) is attributed to the network adversary, whose interference a
// fresh run can outlast.
func Transient(err error) bool {
	if err == nil {
		return false
	}
	var pe *ErrPolicy
	return !errors.As(err, &pe)
}

// Dialed adapts a connection the caller already opened to Challenge's
// dial parameter. It yields the same connection on every call, so it
// suits the zero (single-attempt) policy only.
func Dialed(conn *netsim.Conn) func() (*netsim.Conn, error) {
	return func() (*netsim.Conn, error) { return conn, nil }
}

// Challenge drives the challenger side of remote attestation under pol.
// dial opens a fresh connection per attempt — the application owns
// addressing and any preamble it must send before the protocol (e.g. a
// service banner). On success it returns the live connection, its
// connID (holding the established session), the attested identity, and
// how many retries were needed. A failed attempt's connection is closed
// so the remote side unblocks; its pending enclave state is aborted when
// st is non-nil, and each retry charges core.CostRetryAttempt to the
// challenger enclave's meter.
//
// With a non-nil trace the whole run is an "attest.challenge" span on
// track and each enclave round a nested span carrying the challenger's
// tally delta; every retry records an "attest.retry" instant (with the
// attempt number and the error that forced it), so a trace shows exactly
// how much of an attestation's cost the network adversary caused. The
// track must be private to this (sequential) flow.
func Challenge(tr *obs.Trace, track string, enc *core.Enclave, shim *netsim.IOShim, st *ChallengerState,
	dial func() (*netsim.Conn, error), wantDH bool, pol RetryPolicy) (*netsim.Conn, uint32, Identity, int, error) {
	pol = pol.withDefaults()
	all := tr.Begin(track, "attest.challenge", enc.Meter())
	defer all.End()
	var lastErr error
	for attempt := 0; attempt < pol.Attempts; attempt++ {
		if attempt > 0 {
			enc.Meter().ChargeNormal(core.CostRetryAttempt)
			tr.Event(track, "attest.retry", map[string]string{
				"attempt": fmt.Sprint(attempt),
				"cause":   lastErr.Error(),
			})
			pol.Pause(attempt)
		}
		conn, err := dial()
		if err != nil {
			lastErr = err
			if !Transient(err) {
				break
			}
			continue
		}
		cid, id, err := challengeOnce(tr, track, enc, shim, conn, wantDH, pol.RecvTimeout)
		if err == nil {
			return conn, cid, id, attempt, nil
		}
		if st != nil {
			st.Abort(cid)
			// finish may have stored a session before the ack was lost;
			// the connection is dead, so the session goes with it.
			st.Drop(cid)
		}
		lastErr = err
		if !Transient(err) {
			break
		}
	}
	return nil, 0, Identity{}, pol.Attempts - 1,
		fmt.Errorf("attest: attestation failed after %d attempts: %w", pol.Attempts, lastErr)
}

// An Invalidator purges verification state cached outside the session
// table — a quote-verification cache, an admission ledger — that was
// derived from the peer's previous attestation. Re-establishment must
// call it before the fresh challenge runs: a cache entry keyed to the
// old quote would otherwise let a replayed stale quote satisfy the new
// connection without ever being re-verified against the current policy.
type Invalidator interface {
	InvalidatePeer(connID uint32)
}

// Reestablish replaces an expired (or revoked) session with a freshly
// attested one, in the only safe order: first every trace of the old
// attestation is destroyed — the pending protocol state and stored
// session on the old connection, plus whatever the Invalidator cached
// from the old quote — and only then does a new Challenge run. The
// scheduling work is what core.CostSessionReestablish prices, so it is
// charged here (once per re-establishment, before the retry loop adds
// its own per-attempt costs); detection of the expiry itself, in
// SessionTable.live, charges nothing. A fresh attestation of a
// since-revoked peer fails the challenger's current Policy, because no
// cached verdict survives to shortcut the check.
func Reestablish(tr *obs.Trace, track string, enc *core.Enclave, shim *netsim.IOShim, st *ChallengerState,
	oldConnID uint32, inv Invalidator, dial func() (*netsim.Conn, error), wantDH bool, pol RetryPolicy) (*netsim.Conn, uint32, Identity, int, error) {
	st.Abort(oldConnID)
	st.Drop(oldConnID)
	if inv != nil {
		inv.InvalidatePeer(oldConnID)
	}
	enc.Meter().ChargeNormal(core.CostSessionReestablish)
	tr.Event(track, "attest.reestablish", map[string]string{
		"conn": fmt.Sprint(oldConnID),
	})
	return Challenge(tr, track, enc, shim, st, dial, wantDH, pol)
}
