package mapdb

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"bdrmap/internal/netx"
	"bdrmap/internal/obs"
	"bdrmap/internal/topo"
)

// Replication: a follower serves the leader's border map read-only. The
// protocol is the same two artifacts the serving tier already produces —
// the segment image (full state, fetched from /v1/segment on first
// contact or after a history gap) and the GenDiff stream (/v1/watch
// NDJSON frames, applied incrementally). A follower therefore holds
// exactly the generations the leader published: same generation numbers,
// same segment image, same diffs (adopted verbatim, not recomputed).

// Apply reconstructs generation d.To by replaying d on top of s (which
// must be generation d.From). The result is a freshly indexed heap
// snapshot in the canonical layout Compile produces, so its WriteTo image
// equals the leader's for the same generation; s is not modified.
func (s *Snapshot) Apply(d *GenDiff) (*Snapshot, error) {
	if d.From != s.gen {
		return nil, fmt.Errorf("mapdb: apply: diff is %d→%d but snapshot is generation %d", d.From, d.To, s.gen)
	}
	next := &Snapshot{gen: d.To, host: s.host, vps: append([]string(nil), d.VPs...)}

	removed := make(map[Link]bool, len(d.Removed))
	for _, l := range d.Removed {
		removed[stripHeur(l)] = true
	}
	relabeled := make(map[Link]string, len(d.Relabeled))
	for _, l := range d.Relabeled {
		relabeled[stripHeur(l)] = l.Heuristic
	}
	next.links = make([]Link, 0, len(s.links)+len(d.Added))
	for _, l := range s.links {
		id := stripHeur(l)
		if removed[id] {
			continue
		}
		if h, ok := relabeled[id]; ok {
			l.Heuristic = h
		}
		next.links = append(next.links, l)
	}
	next.links = append(next.links, d.Added...)

	byAddr := make(map[netx.Addr]OwnerInfo, len(s.ownerAddrs)+len(d.OwnersSet))
	for i, a := range s.ownerAddrs {
		byAddr[a] = s.owners[i]
	}
	for _, a := range d.OwnersRemoved {
		delete(byAddr, a)
	}
	for _, od := range d.OwnersSet {
		byAddr[od.Addr] = od.OwnerInfo
	}
	next.ownerAddrs = make([]netx.Addr, 0, len(byAddr))
	next.owners = make([]OwnerInfo, 0, len(byAddr))
	for a, o := range byAddr {
		next.ownerAddrs = append(next.ownerAddrs, a)
		next.owners = append(next.owners, o)
	}
	next.finishIndexes()
	return next, nil
}

// WatchFrame is one NDJSON line on /v1/watch — the struct the handler
// encodes and the client decodes.
type WatchFrame struct {
	Type   string   `json:"type"`          // "hello" | "diff" | "keepalive"
	Gen    int      `json:"gen,omitempty"` // hello: the leader's newest generation
	HostAS topo.ASN `json:"host_as,omitempty"`
	Diff   *GenDiff `json:"diff,omitempty"` // non-nil for "diff"
}

// ---------------------------------------------------------------------------
// Clients

// ErrGenUnknown reports that the requested resume generation fell out of
// the leader's bounded history: the watcher cannot be caught up by diffs
// and must full-sync from /v1/segment.
var ErrGenUnknown = errors.New("mapdb: resume generation not retained by leader")

// WatchClient tails one /v1/watch stream. Zero value plus Base is usable.
type WatchClient struct {
	Base   string // leader base URL, e.g. "http://127.0.0.1:8080"
	Client *http.Client
	// From resumes the stream: the leader first replays diffs From→now,
	// then pushes live. Zero starts live-only from the current generation.
	From int
}

func (c *WatchClient) httpClient() *http.Client {
	if c.Client != nil {
		return c.Client
	}
	return http.DefaultClient
}

// Run connects and invokes fn for every frame until the stream ends (the
// leader closed it, e.g. a lagging-watcher drop), fn returns an error, or
// ctx is canceled. A resume gap surfaces as ErrGenUnknown.
func (c *WatchClient) Run(ctx context.Context, fn func(WatchFrame) error) error {
	url := c.Base + "/v1/watch"
	if c.From > 0 {
		url = fmt.Sprintf("%s?from=%d", url, c.From)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return ErrGenUnknown
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("mapdb: watch: leader answered %s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 64<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var f WatchFrame
		if err := json.Unmarshal(line, &f); err != nil {
			return fmt.Errorf("mapdb: watch: bad frame: %w", err)
		}
		if err := fn(f); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil && ctx.Err() == nil {
		return err
	}
	return ctx.Err()
}

// FetchSegment downloads the leader's current generation as a segment
// image from /v1/segment and decodes it.
func FetchSegment(ctx context.Context, client *http.Client, base string) (*Snapshot, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/segment", nil)
	if err != nil {
		return nil, err
	}
	if client == nil {
		client = http.DefaultClient
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("mapdb: segment fetch: leader answered %s", resp.Status)
	}
	buf, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return ReadSegment(buf)
}

// Follower tails a leader and mirrors its generation stream into Store:
// full segment on first contact or history gap, diff frames otherwise,
// each adopted with the leader's own generation number and diff so every
// /v1/ read on the follower answers identically to the leader.
type Follower struct {
	Leader string // leader base URL
	Store  *Store
	Reg    *obs.Registry
	Client *http.Client

	// Redial backoff bounds; defaults 100ms … 3s.
	RedialMin, RedialMax time.Duration
}

// Run replicates until ctx is canceled. Connection loss, stream close,
// and history gaps are all handled by redialing (with backoff) and — when
// diffs cannot bridge — full-syncing; the error returned is ctx.Err().
func (f *Follower) Run(ctx context.Context) error {
	min, max := f.RedialMin, f.RedialMax
	if min <= 0 {
		min = 100 * time.Millisecond
	}
	if max < min {
		max = 3 * time.Second
	}
	backoff := min
	for ctx.Err() == nil {
		err := f.stream(ctx)
		if ctx.Err() != nil {
			break
		}
		if errors.Is(err, ErrGenUnknown) {
			// The leader's history moved past our resume point: catch up
			// with a full segment, then re-enter the diff stream.
			if serr := f.fullSync(ctx); serr == nil {
				backoff = min
				continue
			}
			f.Reg.Inc("mapdb.follower.sync_errors")
		} else if err != nil {
			f.Reg.Inc("mapdb.follower.redials")
		}
		select {
		case <-ctx.Done():
		case <-time.After(backoff):
		}
		backoff *= 2
		if backoff > max {
			backoff = max
		}
	}
	return ctx.Err()
}

// stream runs one watch connection: resume from our newest generation
// (full-syncing first if we have none), then apply diff frames as they
// arrive. Returns when the connection drops or a frame cannot be applied.
func (f *Follower) stream(ctx context.Context) error {
	cur := f.Store.Current()
	if cur == nil {
		if err := f.fullSync(ctx); err != nil {
			return err
		}
		cur = f.Store.Current()
	}
	wc := &WatchClient{Base: f.Leader, Client: f.Client, From: cur.Gen()}
	return wc.Run(ctx, func(fr WatchFrame) error {
		if fr.Type != "diff" || fr.Diff == nil {
			return nil
		}
		return f.apply(fr.Diff)
	})
}

// apply replays one diff frame onto the follower's newest generation.
// Frames at or behind the local generation are duplicates (a resume
// overlap) and are skipped; a frame ahead of local+1 is a gap the caller
// heals with a full sync.
func (f *Follower) apply(d *GenDiff) error {
	cur := f.Store.Current()
	if cur == nil {
		return ErrGenUnknown
	}
	if d.To <= cur.Gen() {
		return nil
	}
	if d.From != cur.Gen() {
		return ErrGenUnknown
	}
	next, err := cur.Apply(d)
	if err != nil {
		return err
	}
	if err := f.Store.Adopt(next, d); err != nil {
		return err
	}
	f.Reg.Inc("mapdb.follower.diffs_applied")
	return nil
}

// fullSync adopts the leader's current generation wholesale.
func (f *Follower) fullSync(ctx context.Context) error {
	snap, err := FetchSegment(ctx, f.Client, f.Leader)
	if err != nil {
		return err
	}
	if cur := f.Store.Current(); cur != nil && snap.Gen() <= cur.Gen() {
		// Already there (leader hasn't moved); not an error.
		return nil
	}
	if err := f.Store.Adopt(snap, nil); err != nil {
		return err
	}
	f.Reg.Inc("mapdb.follower.full_syncs")
	return nil
}
