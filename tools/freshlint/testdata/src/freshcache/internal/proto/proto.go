// Package proto is a fixture stub mirroring the API surface of the
// real freshcache/internal/proto package that the analyzers match
// against: the pooled Msg lifecycle, shared frames, frame caps, and
// the wire-decode cursor. Bodies are trivial; only signatures, type
// names, and the import path matter to the analyzers.
package proto

const (
	MaxBatchOps = 1 << 20
	MaxNodes    = 1 << 10
	MaxFrame    = 16 << 20
)

type Msg struct {
	Type    uint8
	Seq     uint64
	Key     string
	Value   []byte
	Keys    []string
	Ops     []BatchOp
	Version uint64
}

type BatchOp struct {
	Kind    uint8
	Key     string
	Value   []byte
	Version uint64
}

type KeyFreq struct {
	Key           string
	Reads, Writes uint64
}

func GetMsg() *Msg  { return &Msg{} }
func PutMsg(m *Msg) {}

type SharedFrame struct{ buf []byte }

func (f *SharedFrame) Bytes() []byte { return f.buf }
func (f *SharedFrame) Retain()       {}
func (f *SharedFrame) Release()      {}

func EncodeShared(m *Msg, refs int) (*SharedFrame, error) {
	return &SharedFrame{}, nil
}

// Outgoing is a queued write: either a Msg to encode (released by the
// writer when Pooled) or an already-encoded shared frame.
type Outgoing struct {
	Msg    *Msg
	Raw    *SharedFrame
	Pooled bool
}

func (o *Outgoing) Discard() {}

type cursor struct {
	b []byte
	i int
}

func (c *cursor) u8() (uint8, error)   { return 0, nil }
func (c *cursor) u16() (uint16, error) { return 0, nil }
func (c *cursor) u32() (uint32, error) { return 0, nil }
func (c *cursor) u64() (uint64, error) { return 0, nil }
