// Package wal implements the engine's write-ahead log: a segmented
// append-only file of physical records, one group per published commit.
// The database layer logs what a commit published, not the statement
// that asked for it: the schema statements the commit ran, as text, and
// the data it changed, as the data lines a dump restores (each changed
// object's extent, OID, owner and encoded tuple, a tombstone for each
// deleted one, and the variables and element sets it wrote). Replaying
// the groups in LSN order over the checkpoint rebuilds the published
// store, OIDs included, without running a write statement again.
//
// Records are framed [u32 length | u32 crc32(payload) | payload], so a
// crash mid-append leaves a detectable torn tail: recovery stops at the
// first frame whose length field, checksum or LSN sequence is wrong,
// truncates the garbage, and the committed prefix survives intact. A
// commit's records are appended as one group: every record but the last
// carries the More flag, and the record without it closes the group.
// Recovery hands a group to Replay only once it has read the closing
// record; an unclosed group at the tail is torn, and is truncated with
// the garbage after it, so a crash inside a multi-record commit
// recovers none of it.
//
// Durability is leader/follower group commit: committers append under
// the log mutex (cheap — no I/O), then the first waiter to win the
// flush lock writes and fsyncs everything appended so far — its own
// record plus every follower's — and broadcasts the new durable
// horizon. One fsync amortizes over every commit that arrived while
// the previous fsync ran, which is what lets N concurrent sessions
// sustain far more committed writes per second than
// one-fsync-per-commit allows.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Kind discriminates the record types the database layer logs.
type Kind uint8

const (
	// RecordStmt is one schema statement a commit ran: Src is its text,
	// User the user it ran as (the owner of what it defines).
	RecordStmt Kind = 1
	// RecordData is data a commit or a Load published: each element of
	// Data is one data line (OBJ, DEL, VAR, ELEM, ELEMDEL, OIDS; see the
	// object package's Store.ApplyLine), its payload raw.
	RecordData Kind = 2
)

// Record is one logical WAL entry. LSN is assigned by Log.Append;
// records replay in LSN order.
type Record struct {
	LSN     uint64
	Kind    Kind
	Session int64  // id of the session that logged it; recovery does not read it
	User    string // the user a RecordStmt ran as
	Src     string
	Data    [][]byte
	// More marks a record that another record of the same group
	// follows. Append sets it on every record of a group but the last.
	More bool
}

// flagMore is the payload flag that carries Record.More. Bit 0 is
// retired (it once marked a statement that erred after publishing part
// of its effects) and stays undefined.
const flagMore = 2

const (
	// frameHeader is the per-record framing overhead: u32 payload
	// length, u32 CRC32 (IEEE) of the payload.
	frameHeader = 8
	// MaxRecord bounds a single payload, enforced on both sides of the
	// log: Append refuses a larger record (ErrTooLarge), and recovery
	// treats a length field above it as tail garbage, not an allocation
	// request. The two must agree — a record the writer accepts but the
	// reader rejects would be acknowledged yet unrecoverable.
	MaxRecord = 64 << 20
)

// ErrTooLarge reports a record whose payload would exceed MaxRecord.
// Appending it is refused before it is assigned an LSN; producers of
// unbounded payloads (bulk loads) must chunk below the limit, and the
// database layer sizes a write's records with PayloadSize before it
// publishes the write, so an unloggable write is dropped, not applied.
var ErrTooLarge = errors.New("record exceeds the wal payload limit")

// PayloadSize returns an upper bound on the record's serialized
// payload size (the LSN, unassigned until Append, is counted at its
// maximum varint width). Callers that build potentially large records
// compare it against MaxRecord before publishing the state the record
// is meant to make durable.
func (r *Record) PayloadSize() int {
	n := binary.MaxVarintLen64 + 2 // LSN bound + kind + flags
	n += uvarintLen(uint64(r.Session))
	n += uvarintLen(uint64(len(r.User))) + len(r.User)
	n += uvarintLen(uint64(len(r.Src))) + len(r.Src)
	n += uvarintLen(uint64(len(r.Data)))
	for _, d := range r.Data {
		n += uvarintLen(uint64(len(d))) + len(d)
	}
	return n
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// appendPayload serializes the record (including its LSN) onto dst.
func appendPayload(dst []byte, r *Record) []byte {
	dst = binary.AppendUvarint(dst, r.LSN)
	flags := byte(0)
	if r.More {
		flags = flagMore
	}
	dst = append(dst, byte(r.Kind), flags)
	dst = binary.AppendUvarint(dst, uint64(r.Session))
	dst = binary.AppendUvarint(dst, uint64(len(r.User)))
	dst = append(dst, r.User...)
	dst = binary.AppendUvarint(dst, uint64(len(r.Src)))
	dst = append(dst, r.Src...)
	dst = binary.AppendUvarint(dst, uint64(len(r.Data)))
	for _, d := range r.Data {
		dst = binary.AppendUvarint(dst, uint64(len(d)))
		dst = append(dst, d...)
	}
	return dst
}

// appendFrame serializes the record with its length+CRC frame onto dst.
func appendFrame(dst []byte, r *Record) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0) // frame header placeholder
	dst = appendPayload(dst, r)
	payload := dst[start+frameHeader:]
	binary.BigEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.BigEndian.PutUint32(dst[start+4:], crc32.ChecksumIEEE(payload))
	return dst
}

// errTorn reports a frame that cannot be a complete record: recovery
// treats it as the crash-torn tail of the log and stops there.
type errTorn struct{ reason string }

func (e *errTorn) Error() string { return "torn wal tail: " + e.reason }

// decodePayload parses one record payload.
func decodePayload(p []byte) (*Record, error) {
	r := &Record{}
	lsn, n := binary.Uvarint(p)
	if n <= 0 {
		return nil, fmt.Errorf("bad lsn varint")
	}
	r.LSN = lsn
	p = p[n:]
	if len(p) < 2 {
		return nil, fmt.Errorf("truncated header")
	}
	r.Kind = Kind(p[0])
	if p[1]&^flagMore != 0 {
		return nil, fmt.Errorf("unknown flags %#x", p[1])
	}
	r.More = p[1] == flagMore
	p = p[2:]
	sess, n := binary.Uvarint(p)
	if n <= 0 {
		return nil, fmt.Errorf("bad session varint")
	}
	r.Session = int64(sess)
	p = p[n:]
	var err error
	if r.User, p, err = readString(p); err != nil {
		return nil, fmt.Errorf("user: %w", err)
	}
	if r.Src, p, err = readString(p); err != nil {
		return nil, fmt.Errorf("src: %w", err)
	}
	nd, n := binary.Uvarint(p)
	if n <= 0 || nd > uint64(len(p)) {
		return nil, fmt.Errorf("bad data count")
	}
	p = p[n:]
	if nd > 0 {
		r.Data = make([][]byte, 0, nd)
		for i := uint64(0); i < nd; i++ {
			var d string
			if d, p, err = readString(p); err != nil {
				return nil, fmt.Errorf("data[%d]: %w", i, err)
			}
			r.Data = append(r.Data, []byte(d))
		}
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("%d trailing bytes", len(p))
	}
	return r, nil
}

func readString(p []byte) (string, []byte, error) {
	l, n := binary.Uvarint(p)
	if n <= 0 || l > uint64(len(p)-n) {
		return "", nil, fmt.Errorf("bad length")
	}
	return string(p[n : n+int(l)]), p[n+int(l):], nil
}

// nextFrame cuts one framed record off the front of b. A nil record
// with a *errTorn error means b ends in a torn or corrupt tail: the
// bytes from the frame start on are garbage and recovery must stop.
func nextFrame(b []byte, wantLSN uint64) (*Record, []byte, error) {
	if len(b) < frameHeader {
		return nil, nil, &errTorn{reason: fmt.Sprintf("%d-byte partial frame header", len(b))}
	}
	size := binary.BigEndian.Uint32(b)
	sum := binary.BigEndian.Uint32(b[4:])
	if size == 0 || size > MaxRecord {
		return nil, nil, &errTorn{reason: fmt.Sprintf("implausible frame length %d", size)}
	}
	if uint32(len(b)-frameHeader) < size {
		return nil, nil, &errTorn{reason: fmt.Sprintf("frame wants %d bytes, %d remain", size, len(b)-frameHeader)}
	}
	payload := b[frameHeader : frameHeader+int(size)]
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, nil, &errTorn{reason: "payload checksum mismatch"}
	}
	r, err := decodePayload(payload)
	if err != nil {
		return nil, nil, &errTorn{reason: "undecodable payload: " + err.Error()}
	}
	if r.LSN != wantLSN {
		return nil, nil, &errTorn{reason: fmt.Sprintf("lsn %d where %d expected", r.LSN, wantLSN)}
	}
	return r, b[frameHeader+int(size):], nil
}
