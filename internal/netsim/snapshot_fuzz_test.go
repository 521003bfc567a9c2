package netsim

import (
	"errors"
	"testing"
	"time"

	"repro/internal/snap"
	"repro/internal/stats"
)

// Fail-closed restore of crafted heap sections. A checkpoint file's CRC only
// proves the bytes arrived intact, not that an encoder wrote them: the heap
// restore must turn every section it cannot run into a decoder error, never
// into a panic at the next Run.

// heapEntry is one raw heap-section record.
type heapEntry struct {
	at      time.Duration
	seq     uint64
	kind    uint8
	id      int64
	present uint8  // packet kind only: the packet-presence byte
	pkt     Packet // packet kind only, written when present == 1
}

// snapWithHeap encodes d's checkpoint in Dumbbell.Snapshot's component order
// with the heap section replaced by entries.
func snapWithHeap(t testing.TB, d *Dumbbell, entries []heapEntry) []byte {
	t.Helper()
	e := snap.NewEncoder()
	e.Tag("dumbbell")
	d.Sim.SnapshotState(e)
	d.Link.(snap.Snapshotter).Snapshot(e)
	for i := range d.Sources {
		if d.Sources[i] != nil {
			d.Sources[i].Snapshot(e)
		} else {
			d.CBRs[i].Snapshot(e)
		}
	}
	e.Tag("heap")
	e.U32(uint32(len(entries)))
	for _, h := range entries {
		e.Dur(h.at)
		e.U64(h.seq)
		e.U8(h.kind)
		e.I64(h.id)
		if h.kind != snapEvPacket {
			continue
		}
		if h.present == 1 {
			p := h.pkt
			SnapshotPacket(e, &p)
		} else {
			e.U8(h.present)
		}
	}
	blob, err := e.Encode(snap.Version)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// restoreCrafted restores blob into a rebuilt dumbbell and returns it with
// the restore error (nil when the heap was accepted).
func restoreCrafted(t testing.TB, blob []byte) (*Dumbbell, error) {
	t.Helper()
	dec, err := snap.Decode(blob, snap.Version)
	if err != nil {
		t.Fatal(err) // CRC-valid by construction
	}
	res := buildSnapDumbbell()
	res.Restore(dec)
	if err := dec.Err(); err != nil {
		return res, err
	}
	return res, dec.Done()
}

// snapBarrier is where the crafted checkpoints are cut: both controlled
// flows and the CBR flow have started.
const snapBarrier = 300 * time.Millisecond

// TestRestoreHeapFailsClosed pins the two named rejections: a packet
// delivery whose packet is absent, and an event due before the restored
// clock.
func TestRestoreHeapFailsClosed(t *testing.T) {
	ref := buildSnapDumbbell()
	ref.Run(snapBarrier)
	dispatcher := ref.Sim.RegisterReceiver(ref.Dispatcher)
	cases := []struct {
		name  string
		entry heapEntry
		want  error
	}{
		{"packet absent", heapEntry{at: snapBarrier + time.Millisecond, seq: ref.Sim.seq + 1,
			kind: snapEvPacket, id: dispatcher, present: 0}, ErrPacketAbsent},
		{"event in past", heapEntry{at: snapBarrier - time.Millisecond, seq: ref.Sim.seq + 1,
			kind: snapEvPacket, id: dispatcher, present: 1, pkt: Packet{Bytes: 1000}}, ErrEventInPast},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := restoreCrafted(t, snapWithHeap(t, ref, []heapEntry{c.entry}))
			if !errors.Is(err, c.want) {
				t.Fatalf("restore error = %v, want %v", err, c.want)
			}
		})
	}
}

// FuzzRestoreHeap restores CRC-valid checkpoints whose heap section is built
// from fuzzed kinds, ids, times and packet-presence bytes into a rebuilt
// dumbbell: the restore either fails with an error, or the restored heap
// runs to completion without panicking. Each 8-byte chunk of data is one
// event: kind, id, time offset (2 bytes, 100 µs units around the clock),
// presence byte, and the packet's flow, seq and pending delay component.
func FuzzRestoreHeap(f *testing.F) {
	ref := buildSnapDumbbell()
	ref.Run(snapBarrier)
	// Committed corpus (testdata/fuzz/FuzzRestoreHeap) adds the rejection
	// cases and the stray serialization-complete regression.
	f.Add([]byte{snapEvFunc, 3, 0, 10, 0, 0, 0, 0})      // a source's start callback
	f.Add([]byte{snapEvTimer, 0xce, 0, 100, 0, 0, 0, 0}) // source 0's RTO timer
	f.Add([]byte{snapEvPacket, 1, 0, 20, 1, 0, 5, 0})    // delivery to the dispatcher
	f.Fuzz(func(t *testing.T, data []byte) {
		const chunk = 8
		var entries []heapEntry
		for i := 0; i+chunk <= len(data) && len(entries) < 32; i += chunk {
			b := data[i : i+chunk]
			at := snapBarrier + time.Duration(int16(uint16(b[2])<<8|uint16(b[3])))*100*time.Microsecond
			entries = append(entries, heapEntry{
				at:      at,
				seq:     ref.Sim.seq + uint64(len(entries)) + 1,
				kind:    b[0] % 4,
				id:      int64(int8(b[1])),
				present: b[4],
				pkt: Packet{Flow: int(int8(b[5])), Seq: int64(int8(b[6])), Bytes: 1000,
					SentAt: snapBarrier - 10*time.Millisecond, Window: 4,
					mark: snapBarrier - 10*time.Millisecond, pend: stats.DelayComp(b[7])},
			})
		}
		res, err := restoreCrafted(t, snapWithHeap(t, ref, entries))
		if err != nil {
			return
		}
		res.Run(snapBarrier + 5*time.Second)
	})
}
