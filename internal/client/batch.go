package client

import (
	"fmt"

	"freshcache/internal/proto"
)

// MGetResult is one key's outcome inside a batched read: exactly one of
// {Found, Err} classifies the key (Found=false with a nil Err is a
// clean not-found). A batch never fails wholesale on a per-key problem;
// only transport-level failures surface as the call's error.
type MGetResult struct {
	Value   []byte
	Version uint64
	Found   bool
	// Err is a per-key failure (set by the sharded scatter path when
	// one shard's sub-batch failed; always nil on a single-node MGet
	// that returned at all).
	Err error
}

// MPutResult is one key's outcome inside a batched write: the assigned
// version, or a per-key error from the sharded scatter path.
type MPutResult struct {
	Version uint64
	Err     error
}

// MGet fetches every key in one frame — one sequence number, one demux
// wakeup for the whole set. Results are in request order, one per key;
// missing keys report Found=false rather than failing the batch.
func (c *Client) MGet(keys []string) ([]MGetResult, error) {
	res, _, err := c.mget(proto.MsgMGet, keys, 0)
	return res, err
}

// MFill is the cache-internal batch read used to service misses: like
// MGet but the store records cache fills rather than client reads.
func (c *Client) MFill(keys []string) ([]MGetResult, error) {
	res, _, err := c.mget(proto.MsgMFill, keys, 0)
	return res, err
}

// MGetTraced is MGet with wire-level tracing.
func (c *Client) MGetTraced(keys []string, traceID uint64) ([]MGetResult, *proto.Trace, error) {
	return c.mget(proto.MsgMGet, keys, traceID)
}

func (c *Client) mget(t proto.MsgType, keys []string, traceID uint64) ([]MGetResult, *proto.Trace, error) {
	if len(keys) == 0 {
		return nil, nil, nil
	}
	b := c.batch(t, keys, nil, traceID)
	defer b.release()
	return b.get, b.tr, b.err
}

// batch waits for the MGET or MFILL of keys, or for their MPUT with values.
func (c *Client) batch(verb proto.MsgType, keys []string, values [][]byte, traceID uint64) *call {
	b := callPool.Get().(*call)
	b.keys = keys
	req := newReq(verb)
	if verb == proto.MsgMPut {
		for i, k := range keys {
			b.ops = append(b.ops, proto.BatchOp{Kind: proto.BatchUpdate, Key: k, Value: values[i]})
		}
		req.Ops = b.ops
	} else {
		req.Keys = keys
	}
	return c.wait(b, req, traceID)
}

// mgetResults copies a batched read's answer — ops, one per key in request
// order — into the caller's own results: one slice, and one buffer for
// every value found.
func mgetResults(ops []proto.BatchOp) []MGetResult {
	total := 0
	for i := range ops {
		total += len(ops[i].Value)
	}
	buf := make([]byte, 0, total)
	out := make([]MGetResult, len(ops))
	for i, op := range ops {
		if op.Kind == proto.BatchUpdate {
			at := len(buf)
			buf = append(buf, op.Value...)
			out[i] = MGetResult{Value: buf[at:len(buf):len(buf)], Version: op.Version, Found: true}
		}
	}
	return out
}

// MGetAsync is MGet without the wait — GetAsync's contract, cold-slot
// fallback included, for a batch: done is called exactly once with the
// lent response (DecodeMGet reads it) or the transport error. keys is
// lent until MGetAsync returns.
func (c *Client) MGetAsync(keys []string, traceID uint64, done Completion) {
	req := newReq(proto.MsgMGet)
	req.Keys = keys
	c.startAsync(req, traceID, done)
}

// MFillAsync is MGetAsync for the cache-internal batch miss fill (see MFill).
func (c *Client) MFillAsync(keys []string, traceID uint64, done Completion) {
	req := newReq(proto.MsgMFill)
	req.Keys = keys
	c.startAsync(req, traceID, done)
}

// DecodeMGet checks an MGET's response — the one lent to an MGetAsync
// completion, say — against the keys requested, exactly as MGet would,
// request-level server errors included, and returns its ops: one per
// key in request order, BatchUpdate for a found key. They are borrowed
// from resp, values and all.
func DecodeMGet(resp *proto.Msg, keys []string) ([]proto.BatchOp, error) {
	return decodeBatch(resp, proto.MsgMGetResp, "MGET", keys)
}

// decodeBatch is the one check of a batched response against the keys
// requested: its type, one op per key, and the digest of the keys it
// answers, which must be these in request order. It then labels the
// positional ops with the caller's own key strings.
func decodeBatch(resp *proto.Msg, want proto.MsgType, verb string, keys []string) ([]proto.BatchOp, error) {
	if err := serverErr(resp); err != nil {
		return nil, err
	}
	if resp.Type != want {
		return nil, fmt.Errorf("client: unexpected response %v to %s", resp.Type, verb)
	}
	if len(resp.Ops) != len(keys) {
		return nil, fmt.Errorf("client: %s answered %d keys for %d requested",
			verb, len(resp.Ops), len(keys))
	}
	if resp.Digest != proto.KeysDigest(keys) {
		return nil, fmt.Errorf("client: %s response out of order: it answers other keys than the %d requested, or them in another order",
			verb, len(keys))
	}
	for i := range resp.Ops {
		resp.Ops[i].Key = keys[i]
	}
	return resp.Ops, nil
}

// MPut writes values[i] under keys[i] for every i in one frame and
// returns per-key results in request order. A BatchInvalidate op in the
// response marks a key whose write failed at an upstream shard (the LB
// encodes partial scatter failures this way); it surfaces as that key's
// Err, not the call's.
func (c *Client) MPut(keys []string, values [][]byte) ([]MPutResult, error) {
	res, _, err := c.mput(keys, values, 0)
	return res, err
}

// MPutTraced is MPut with wire-level tracing.
func (c *Client) MPutTraced(keys []string, values [][]byte, traceID uint64) ([]MPutResult, *proto.Trace, error) {
	return c.mput(keys, values, traceID)
}

func (c *Client) mput(keys []string, values [][]byte, traceID uint64) ([]MPutResult, *proto.Trace, error) {
	if len(keys) != len(values) {
		return nil, nil, fmt.Errorf("client: MPUT with %d keys but %d values", len(keys), len(values))
	}
	if len(keys) == 0 {
		return nil, nil, nil
	}
	b := c.batch(proto.MsgMPut, keys, values, traceID)
	defer b.release()
	return b.put, b.tr, b.err
}

// MPutAsync is MPut without the wait — GetAsync's contract, cold-slot
// fallback included, for a batched write: done is called exactly once with
// the lent response (DecodeMPut reads it) or the transport error. ops —
// BatchUpdate, key, value — and their values are lent until MPutAsync
// returns.
func (c *Client) MPutAsync(ops []proto.BatchOp, traceID uint64, done Completion) {
	req := newReq(proto.MsgMPut)
	req.Ops = ops
	c.startAsync(req, traceID, done)
}

// DecodeMPut checks an MPUT's response against the keys written, exactly
// as MPut would, request-level server errors included, and returns its
// ops: one per key in request order, carrying the assigned version, or of
// kind BatchInvalidate for a key whose write failed upstream
// (MPutKeyError). They are borrowed from resp.
func DecodeMPut(resp *proto.Msg, keys []string) ([]proto.BatchOp, error) {
	return decodeBatch(resp, proto.MsgMPutResp, "MPUT", keys)
}

// MPutKeyError is the per-key failure a BatchInvalidate op in an MPUT's
// response stands for.
func MPutKeyError(key string) error {
	return fmt.Errorf("%w: MPUT of %q failed upstream", ErrServer, key)
}
