package probe

import (
	"bdrmap/internal/netx"
	"bdrmap/internal/topo"
)

// PathSignature fingerprints the hop sequence a traceroute from vp toward
// dst would observe *right now*, without sending a single probe packet or
// advancing any clock. It replays the forwarding walk (computePath) and the
// per-hop response-source selection of traceroute — echo reply / destination
// unreachable at the final router, ttlExpiredSource at intermediate ones —
// and folds (ttl, response class, source address) into an FNV-1a hash.
//
// The signature deliberately excludes everything that depends on responder
// *state*: IP-IDs, RTTs, rate-limit budgets, and injected faults. Two worlds
// with the same signature for dst therefore produce traces with identical
// hop/class/address sequences (the byte-identical W1-vs-W4 golden runs pin
// exactly this invariance), which is what lets the incremental driver reuse
// a cached TraceResult when the signature is unchanged between rounds. The
// converse is conservative: a change anywhere on the full path — even past
// the point where a stop set or the gap limit would have truncated the
// cached trace — invalidates the signature and forces a re-walk.
//
// Cost is pure CPU (one memoised path walk, shared with the traceroute that
// follows a changed signature); the engine's forwarding plane is the only
// state it touches.
func (e *Engine) PathSignature(vp *topo.VP, dst netx.Addr) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		h ^= v
		h *= prime64
	}

	path := e.computePath(vp.Router, dst)
	for i, s := range path.steps {
		r, in, _ := e.at(s)
		typ, addr := HopTimeout, netx.Addr(0)
		if i == len(path.steps)-1 && path.reached {
			// Final hop: mirror traceroute's echo-reply / unreachable
			// selection with the rate limiter assumed open.
			if path.exact != nil && path.exact.Router == r.ID {
				if !r.Behavior.NoEchoReply {
					typ, addr = HopEchoReply, dst
				}
			} else if path.anchorReplies {
				typ, addr = HopEchoReply, dst
			}
			if typ != HopEchoReply && in != nil && !r.Behavior.NoUDPUnreach {
				typ, addr = HopUnreachable, in.Addr
			}
		} else if !r.Behavior.NoTTLExpired {
			if src, _ := e.ttlExpiredSource(vp, r, in); !src.IsZero() {
				typ, addr = HopTimeExceeded, src
			}
		}
		mix(uint64(i + 1))
		mix(uint64(typ) + 1)
		mix(uint64(addr))
	}
	if path.reached {
		mix(1)
	} else {
		mix(2)
	}
	return h
}
