package serve

import (
	"context"
	"hash/maphash"
	"sync"
	"sync/atomic"

	"extract/internal/telemetry"
)

// numCacheShards is the lock-striping factor of the query cache.
const numCacheShards = 16

// cacheEntry is one cached response, read and written under its shard's
// lock. A carried entry (Cache.clear) is an answer of a replaced generation
// that the serving one may re-prove: its first lookup is a miss that hands
// it to the computation, and the entry is replaced by what that computes.
type cacheEntry struct {
	val     *Cached
	cost    int64
	carried bool

	key        string
	prev, next *cacheEntry // LRU chain, most recent at head
}

// flight is one in-progress computation joined by concurrent identical
// queries (singleflight). The leader closes done; followers read val/err.
// epoch is the cache's invalidation epoch when the leader began.
type flight struct {
	done  chan struct{}
	val   *Cached
	err   error
	epoch uint64
}

// Doorkeeper admission parameters. The doorkeeper is a tiny counting
// filter (TinyLFU-style) per cache shard: every access — hit or miss —
// bumps the query key's counters, and an insert that would evict is
// admitted only when the candidate's estimated frequency is at least that
// of every entry it would displace. A one-off query (frequency 1) — a client scanning
// distinct keyword combinations — can therefore fill spare capacity or
// churn among other one-offs, but can never displace a warm entry whose
// repeated hits have grown its count (pinned by the scan-resistance
// test). Counters halve once enough accesses accumulate, so yesterday's
// frequencies age out instead of vetoing today's working set.
const (
	// doorCounters is the per-row counter count; two rows indexed by
	// independent slices of one hash give count-min behavior, so a
	// collision can only inflate an estimate, and only admission-relevantly
	// when a key is crowded in both rows at once. Sized so that even a
	// scan touching thousands of distinct keys per shard between agings
	// keeps per-slot crowding far below a warm entry's hit count (1 KiB
	// per row per shard).
	doorCounters = 1024
	// doorAgeOps halves every counter after this many recorded accesses
	// per shard.
	doorAgeOps = 4096
)

// doorkeeper is one shard's counting filter, locked by the owning shard.
type doorkeeper struct {
	rows [2][doorCounters]uint8
	ops  int
}

// touch records one access and ages the filter when due.
func (d *doorkeeper) touch(h uint64) {
	for r := range d.rows {
		if c := &d.rows[r][d.idx(r, h)]; *c < 255 {
			*c++
		}
	}
	if d.ops++; d.ops >= doorAgeOps {
		d.ops = 0
		for r := range d.rows {
			for i := range d.rows[r] {
				d.rows[r][i] >>= 1
			}
		}
	}
}

// count estimates the key's access frequency (count-min over the rows).
func (d *doorkeeper) count(h uint64) uint8 {
	c := d.rows[0][d.idx(0, h)]
	if c2 := d.rows[1][d.idx(1, h)]; c2 < c {
		c = c2
	}
	return c
}

func (d *doorkeeper) idx(row int, h uint64) int {
	return int((h >> (row * 32)) % doorCounters)
}

func (d *doorkeeper) reset() {
	for r := range d.rows {
		clear(d.rows[r][:])
	}
	d.ops = 0
}

// cacheShard is one lock-striped slice of the cache: an LRU-ordered entry
// map plus the in-flight table and admission filter for its keys.
type cacheShard struct {
	mu       sync.Mutex
	entries  map[string]*cacheEntry
	inflight map[string]*flight
	head     *cacheEntry // most recently used
	tail     *cacheEntry // least recently used
	bytes    int64
	maxBytes int64
	door     doorkeeper
}

// Cache is a sharded, size-bounded LRU map from query keys (cacheKey) to
// cached responses, with singleflight coalescing of concurrent identical
// queries. A zero budget disables the map (every lookup misses, no entry is
// kept); coalescing stays on.
type Cache struct {
	shards [numCacheShards]cacheShard
	seed   maphash.Seed
	// epoch counts invalidations (clear). A computation records the epoch
	// it began in, so a response computed before a clear is returned to the
	// callers who asked before it but is never cached and never joined by
	// callers who asked after.
	epoch atomic.Uint64
	// doorSeed hashes keys for the admission filter — independent of the
	// shard-placement seed so filter collisions do not correlate with
	// lock striping.
	doorSeed maphash.Seed

	// The effectiveness counters are telemetry.Counters so the server can
	// register them in its metric registry without an extra indirection on
	// the increment path; Stats() reads the same instruments.
	hits      telemetry.Counter
	misses    telemetry.Counter
	coalesced telemetry.Counter
	evictions telemetry.Counter
	rejected  telemetry.Counter
	// carried counts what became of the entries a swap found, by fate.
	carried [numFates]telemetry.Counter
}

// The fates of a cached entry across a swap (extract_cache_carried_total):
// dropped by the swap, or carried and, at its first lookup, reused as it was
// or recomputed.
const (
	fateReused = iota
	fateRecomputed
	fateDropped
	numFates
)

// fateNames are the `fate` label values, indexed by fate.
var fateNames = [numFates]string{"reused", "recomputed", "dropped"}

// NewCache builds a cache with a total budget of maxBytes across all
// shards (costs are the entries' estimated heap footprints).
func NewCache(maxBytes int64) *Cache {
	c := &Cache{seed: maphash.MakeSeed(), doorSeed: maphash.MakeSeed()}
	for i := range c.shards {
		c.shards[i].entries = make(map[string]*cacheEntry)
		c.shards[i].inflight = make(map[string]*flight)
		c.shards[i].maxBytes = maxBytes / numCacheShards
	}
	return c
}

func (c *Cache) enabled() bool { return c.shards[0].maxBytes > 0 }

func (c *Cache) shardFor(key string) *cacheShard {
	return &c.shards[maphash.String(c.seed, key)%numCacheShards]
}

// Cache outcomes reported by do and surfaced in metrics and the
// slow-query log.
const (
	outcomeHit       = "hit"
	outcomeMiss      = "miss"
	outcomeCoalesced = "coalesced"
)

// do returns the cached response for key or computes it, coalescing
// concurrent identical queries onto one computation (singleflight — it
// applies even when the cache budget is zero). A carried entry is a miss
// like any other, whose computation receives the entry's response (carried,
// nil for none) to re-prove. The outcome reports how the
// query was answered: outcomeHit, outcomeMiss (this caller computed), or
// outcomeCoalesced (joined another caller's flight). The invalidation epoch
// is read here, before compute runs, and re-checked by put, so a response
// computed against a corpus that was swapped out mid-flight is returned to
// its waiters but never cached. ctx bounds only the caller's own waiting: a
// coalesced follower whose context ends stops waiting and returns the
// context's error, while the leader's computation (running on the leader's
// context) is unaffected.
func (c *Cache) do(ctx context.Context, key string, compute func(carried *Cached) (*Cached, error)) (v *Cached, outcome string, err error) {
	epoch := c.epoch.Load()
	s := c.shardFor(key)
	s.mu.Lock()
	var carried *Cached
	if c.enabled() {
		// Record the access hit or miss: repeated queries grow the
		// frequency that earns (and defends) a cache slot. Coalesced
		// followers record too — a burst of identical queries is genuine
		// demand, whether or not one computation served it.
		s.door.touch(maphash.String(c.doorSeed, key))
		if e, ok := s.entries[key]; ok {
			v := e.val // under the lock: clear re-homes a carried entry in place
			if !e.carried {
				s.moveToFront(e)
				s.mu.Unlock()
				c.hits.Inc()
				return v, outcomeHit, nil
			}
			carried = v
		}
	}
	if f, ok := s.inflight[key]; ok {
		if f.epoch == epoch {
			s.mu.Unlock()
			c.coalesced.Inc()
			select {
			case <-f.done:
				return f.val, outcomeCoalesced, f.err
			case <-ctx.Done():
				return nil, outcomeCoalesced, ctx.Err()
			}
		}
		// The flight predates an invalidation: its result will be of the
		// swapped-out corpus, good enough only for callers who asked
		// before the swap. Compute privately at our own epoch instead —
		// the stale leader still owns the inflight slot, so this round of
		// post-swap callers is not coalesced (put keeps the first entry).
		s.mu.Unlock()
		c.misses.Inc()
		val, err := compute(carried)
		if err == nil {
			c.put(key, val, epoch, nil)
		}
		return val, outcomeMiss, err
	}
	f := &flight{done: make(chan struct{}), epoch: epoch}
	s.inflight[key] = f
	s.mu.Unlock()
	c.misses.Inc()

	f.val, f.err = compute(carried)
	close(f.done)

	// The cache insert and the inflight-slot removal happen under one
	// shard lock (put clears f), so no moment exists where a new caller
	// sees neither the flight nor the entry and computes redundantly —
	// the singleflight guarantee is exactly one computation per key.
	if f.err == nil {
		c.put(key, f.val, f.epoch, f)
	} else {
		s.mu.Lock()
		if s.inflight[key] == f {
			delete(s.inflight, key)
		}
		s.mu.Unlock()
	}
	return f.val, outcomeMiss, f.err
}

// put inserts a computed response, evicting least-recently-used entries
// until the shard fits its budget; it replaces a carried entry of the key,
// and keeps any other. Entries larger than the whole shard
// budget are not kept. When f is non-nil it is the caller's own inflight
// slot, removed under the same lock as the insert so followers always see
// the flight or the entry, never a gap between them.
//
// epoch — the one the computation began in — is re-checked under the shard
// lock, which makes the insert atomic with invalidation: clear bumps the
// epoch before dropping entries, so either put still sees its epoch — in
// which case the clear that follows must take this shard's lock after the
// insert and removes the entry — or the epoch already moved and the stale
// response is dropped here. A response computed against a swapped-out
// corpus can never survive in the cache.
func (c *Cache) put(key string, val *Cached, epoch uint64, f *flight) {
	cost := val.cost() + int64(len(key)) // the entry holds its key's bytes too
	s := c.shardFor(key)
	s.mu.Lock()
	if f != nil && s.inflight[key] == f {
		delete(s.inflight, key)
	}
	if !c.enabled() || cost > s.maxBytes || c.epoch.Load() != epoch {
		s.mu.Unlock()
		return
	}
	if old, ok := s.entries[key]; ok {
		if !old.carried {
			// A concurrent computation of the same key already inserted;
			// keep the incumbent (the responses are equal by construction).
			s.moveToFront(old)
			s.mu.Unlock()
			return
		}
		s.remove(old)
	}
	if need := s.bytes + cost - s.maxBytes; need > 0 {
		// The insert would evict. Admit only if the candidate is asked
		// for at least as often as EVERY entry it would displace — a
		// large response must out-demand the whole set of victims that
		// makes room for it, or one twice-seen bulk query could wipe a
		// shard's warm working set in a single insert. A rejected
		// candidate may still fill spare capacity next time; its accesses
		// were recorded, so a genuine repeat earns its way in.
		candidate := s.door.count(maphash.String(c.doorSeed, key))
		freed := int64(0)
		for v := s.tail; v != nil && freed < need; v = v.prev {
			if candidate < s.door.count(maphash.String(c.doorSeed, v.key)) {
				s.mu.Unlock()
				c.rejected.Add(1)
				return
			}
			freed += v.cost
		}
	}
	e := &cacheEntry{val: val, cost: cost, key: key}
	s.entries[key] = e
	s.pushFront(e)
	s.bytes += cost
	evicted := 0
	for s.bytes > s.maxBytes && s.tail != nil && s.tail != e {
		evicted++
		s.remove(s.tail)
	}
	s.mu.Unlock()
	if evicted > 0 {
		c.evictions.Add(int64(evicted))
	}
}

// recharge re-prices v's entry, if it is still cached, for what v holds
// now — the trees Cached.Trees built — evicting other least-recently-used
// entries until the shard is within budget. A read never evicts the entry
// it read: when the new price alone exceeds the shard's budget (a
// whole-document tree, say), the entry is charged the whole budget, so it
// is the shard's one entry and the first one a later insert displaces. A
// cache shard therefore holds at most one entry that costs more than its
// budget, and the cache at most numCacheShards.
func (c *Cache) recharge(v *Cached) {
	s := c.shardFor(v.key)
	cost := min(v.cost()+int64(len(v.key)), s.maxBytes)
	s.mu.Lock()
	e, ok := s.entries[v.key]
	if !ok || e.val != v {
		s.mu.Unlock()
		return
	}
	s.bytes += cost - e.cost
	e.cost = cost
	evicted := 0
	for s.bytes > s.maxBytes {
		victim := s.tail
		if victim == e {
			victim = e.prev // e fits alone, so another entry is left
		}
		evicted++
		s.remove(victim)
	}
	s.mu.Unlock()
	if evicted > 0 {
		c.evictions.Add(int64(evicted))
	}
}

// occupancy reports the live entry count, estimated bytes held, and the
// total byte budget across shards — the cache gauges.
func (c *Cache) occupancy() (entries, bytes, capacity int64) {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		entries += int64(len(s.entries))
		bytes += s.bytes
		capacity += s.maxBytes
		s.mu.Unlock()
	}
	return entries, bytes, capacity
}

// clear invalidates the cache for a corpus swap: every entry is dropped but
// those carry re-homes (nil drops all), which stay in place — charged at
// their new price, in their LRU position — as carried entries, each
// re-proved or recomputed at its first lookup (do). The epoch moves first:
// in-flight computations are left to their leaders, and put's epoch check
// keeps their results out of the cache.
func (c *Cache) clear(carry func(*Cached) *Cached) {
	c.epoch.Add(1)
	dropped := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for e := s.head; e != nil; {
			next := e.next
			var v *Cached
			if carry != nil {
				v = carry(e.val)
			}
			if v != nil {
				cost := v.cost() + int64(len(e.key))
				s.bytes += cost - e.cost
				e.val, e.cost, e.carried = v, cost, true
			} else {
				dropped++
				s.remove(e)
			}
			e = next
		}
		// The admission filter's frequencies describe the swapped-out
		// corpus's traffic; the new generation starts unprejudiced.
		s.door.reset()
		s.mu.Unlock()
	}
	c.carried[fateDropped].Add(int64(dropped))
}

// Stats is a point-in-time snapshot of cache effectiveness counters.
type Stats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Coalesced int64 `json:"coalesced"` // queries that joined an in-flight identical computation
	Evictions int64 `json:"evictions"`
	Rejected  int64 `json:"rejected"` // inserts the admission filter kept out of a full cache
	Entries   int64 `json:"entries"`
	Bytes     int64 `json:"bytes"`
	Capacity  int64 `json:"capacity"`
	Panics    int64 `json:"panics"` // queries failed by a recovered evaluation panic
	Shed      int64 `json:"shed"`   // queries rejected by the in-flight bound
}

// stats snapshots the counters.
func (c *Cache) stats() Stats {
	st := Stats{
		Hits:      c.hits.Value(),
		Misses:    c.misses.Value(),
		Coalesced: c.coalesced.Value(),
		Evictions: c.evictions.Value(),
		Rejected:  c.rejected.Value(),
	}
	st.Entries, st.Bytes, st.Capacity = c.occupancy()
	return st
}

// --- intrusive LRU list (locked by the owning shard) ---

func (s *cacheShard) pushFront(e *cacheEntry) {
	e.prev, e.next = nil, s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

func (s *cacheShard) moveToFront(e *cacheEntry) {
	if s.head == e {
		return
	}
	// Unlink.
	if e.prev != nil {
		e.prev.next = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	}
	if s.tail == e {
		s.tail = e.prev
	}
	e.prev, e.next = nil, s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
}

func (s *cacheShard) remove(e *cacheEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
	delete(s.entries, e.key)
	s.bytes -= e.cost
}
