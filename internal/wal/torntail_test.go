package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestTornTailCorpus feeds the recovery scanner every shape of crash
// damage a torn final write can leave behind and asserts recovery stops
// exactly at the last valid LSN, truncates the garbage, and leaves the
// log appendable.
func TestTornTailCorpus(t *testing.T) {
	const good = 7 // intact records before the damage

	cases := []struct {
		name   string
		mangle func([]byte) []byte // applied to the encoded segment
	}{
		{"truncated-frame-header", func(b []byte) []byte {
			r := mkRecord(good)
			r.LSN = good + 1
			b = appendFrame(b, r)
			return b[:len(b)-len(b)%7-3] // cut mid-record, keeping a ragged edge
		}},
		{"truncated-payload", func(b []byte) []byte {
			r := mkRecord(good)
			r.LSN = good + 1
			whole := appendFrame(append([]byte(nil), b...), r)
			// Keep the full header but only half the payload.
			cut := len(b) + frameHeader + (len(whole)-len(b)-frameHeader)/2
			return whole[:cut]
		}},
		{"bit-flipped-payload", func(b []byte) []byte {
			r := mkRecord(good)
			r.LSN = good + 1
			start := len(b)
			b = appendFrame(b, r)
			b[start+frameHeader+5] ^= 0x40 // corrupt one payload byte; CRC must catch it
			return b
		}},
		{"bit-flipped-length", func(b []byte) []byte {
			r := mkRecord(good)
			r.LSN = good + 1
			start := len(b)
			b = appendFrame(b, r)
			b[start] ^= 0x80 // length field now implausibly huge
			return b
		}},
		{"zero-filled-tail", func(b []byte) []byte {
			return append(b, make([]byte, 256)...) // preallocated-then-lost space
		}},
		{"valid-prefix-then-garbage", func(b []byte) []byte {
			return append(b, 0xde, 0xad, 0xbe, 0xef, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09)
		}},
		{"duplicate-lsn", func(b []byte) []byte {
			r := mkRecord(good)
			r.LSN = good // repeats the previous LSN; sequence check must stop here
			return appendFrame(b, r)
		}},
		{"skipped-lsn", func(b []byte) []byte {
			r := mkRecord(good)
			r.LSN = good + 2 // gap in the sequence
			return appendFrame(b, r)
		}},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Build a clean 7-record segment by hand.
			var b []byte
			for i := 0; i < good; i++ {
				r := mkRecord(i)
				r.LSN = uint64(i + 1)
				b = appendFrame(b, r)
			}
			cleanLen := len(b)
			b = tc.mangle(b)
			if len(b) <= cleanLen && tc.name != "truncated-frame-header" && tc.name != "truncated-payload" {
				t.Fatalf("mangle did not extend the segment (len %d vs clean %d)", len(b), cleanLen)
			}

			dir := t.TempDir()
			path := filepath.Join(dir, segName(1))
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}

			got, info, l := collect(t, dir, Options{Sync: SyncEach})
			defer l.Close()
			if len(got) != good || info.LastLSN != good {
				t.Fatalf("recovered %d records to lsn %d, want %d intact", len(got), info.LastLSN, good)
			}
			wantTorn := int64(len(b)) - int64(cleanLen)
			if wantTorn < 0 {
				wantTorn = 0 // truncation cases may cut into the last good record... no: they only cut the extra record
			}
			if tc.name == "truncated-frame-header" {
				// The ragged cut may have removed part of record 7 too —
				// recompute from what actually survived on disk.
				onDisk, _ := os.ReadFile(path)
				if int64(len(onDisk)) != int64(cleanLen) {
					t.Fatalf("truncation left %d bytes, want the %d-byte clean prefix", len(onDisk), cleanLen)
				}
			} else if info.TornBytes != wantTorn {
				t.Fatalf("TornBytes = %d, want %d", info.TornBytes, wantTorn)
			}

			// The damage is gone from disk and the log accepts appends at
			// the next LSN.
			onDisk, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if int64(len(onDisk)) != int64(cleanLen) {
				t.Fatalf("segment is %d bytes after recovery, want %d", len(onDisk), cleanLen)
			}
			lsn, err := l.Append(mkRecord(100))
			if err != nil || lsn != good+1 {
				t.Fatalf("append after recovery: lsn=%d err=%v, want %d", lsn, err, good+1)
			}
			if err := l.WaitDurable(lsn); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestTornTailRecoveryIsIdempotent reopens a damaged log twice and
// checks the second recovery sees a clean log with zero torn bytes.
func TestTornTailRecoveryIsIdempotent(t *testing.T) {
	var b []byte
	for i := 0; i < 4; i++ {
		r := mkRecord(i)
		r.LSN = uint64(i + 1)
		b = appendFrame(b, r)
	}
	b = append(b, []byte("garbage after the last commit")...)
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segName(1)), b, 0o644); err != nil {
		t.Fatal(err)
	}

	_, info, l := collect(t, dir, Options{Sync: SyncEach})
	if info.TornBytes == 0 {
		t.Fatal("first recovery saw no torn bytes")
	}
	l.Close()

	got, info2, l2 := collect(t, dir, Options{Sync: SyncEach})
	defer l2.Close()
	if info2.TornBytes != 0 {
		t.Fatalf("second recovery still sees %d torn bytes", info2.TornBytes)
	}
	if len(got) != 4 {
		t.Fatalf("second recovery replayed %d records, want 4", len(got))
	}
}

// TestFrameEncodingStable pins the frame layout: header is big-endian
// length then CRC, and encode/decode round-trips all fields.
func TestFrameEncodingStable(t *testing.T) {
	r := &Record{LSN: 12, Kind: RecordData, Session: 3, User: "alice",
		Src: "OBJ 1 2 deadbeef", Data: [][]byte{nil, []byte("x")}}
	f := appendFrame(nil, r)
	if len(f) <= frameHeader {
		t.Fatal("empty frame")
	}
	dec, rest, err := nextFrame(f, 12)
	if err != nil || len(rest) != 0 {
		t.Fatalf("nextFrame: %v (rest %d)", err, len(rest))
	}
	if dec.LSN != 12 || dec.Kind != RecordData || dec.Session != 3 ||
		dec.User != "alice" || dec.Src != r.Src ||
		len(dec.Data) != 2 || len(dec.Data[0]) != 0 || !bytes.Equal(dec.Data[1], []byte("x")) {
		t.Fatalf("round-trip mismatch: %+v", dec)
	}
}

// TestRetiredFlagIsCorrupt: the payload's flags byte defines no bit (it
// once marked a statement that erred after publishing part of its
// effects), so a frame with any flag set is not a record.
func TestRetiredFlagIsCorrupt(t *testing.T) {
	f := appendFrame(nil, &Record{LSN: 1, Kind: RecordStmt, User: "dba", Src: "drop X"})
	payload := f[frameHeader:]
	payload[2] |= 1 // LSN 1 is one varint byte; then kind, then flags
	binary.BigEndian.PutUint32(f[4:], crc32.ChecksumIEEE(payload))
	if _, _, err := nextFrame(f, 1); err == nil || !strings.Contains(err.Error(), "unknown flags") {
		t.Fatalf("frame with the retired flag bit: err = %v, want an undecodable payload", err)
	}
}
