// Command rebroadcastd is the Audio Stream Rebroadcaster daemon (§2.2)
// for real deployments: it plays the audio on standard input into a
// virtual audio device and multicasts the resulting stream onto the LAN
// over UDP.
//
// Example — rebroadcast a WAV file at CD quality:
//
//	rebroadcastd -group 239.72.1.1:5004 -wav < music.wav
//
// Example — raw PCM from any player that can write to a pipe:
//
//	mpg123 -s song.mp3 | rebroadcastd -group 239.72.1.1:5004 \
//	    -rate 44100 -channels 2
//
// Time-shifted delivery (joins "from N seconds ago", pause and resume)
// is a relay's job: run relayd -channel N -dvr on the same group.
package main

import (
	"bufio"
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/audio"
	"repro/internal/lan"
	"repro/internal/obs"
	"repro/internal/rebroadcast"
	"repro/internal/vad"
	"repro/internal/vclock"
)

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		os.Exit(2) // flag package already printed the problem
	}
	log.SetPrefix("rebroadcastd: ")
	log.SetFlags(0)

	clock := vclock.System
	net := &lan.UDPNetwork{}
	conn, err := net.Attach(lan.Addr(o.local))
	if err != nil {
		log.Fatal(err)
	}
	defer conn.Close()

	reb, err := rebroadcast.New(clock, conn, o.rebroadcastConfig())
	if err != nil {
		log.Fatal(err)
	}

	if o.opsAddr != "" {
		reg := obs.NewRegistry()
		// The rebroadcaster's stats carry no mib tags (it has no MIB);
		// StructCounters falls back to es_reb_<snake_case> names.
		reg.StructCounters("es_reb", func() any { return reb.Stats() })
		reg.Info("es_reb_info", "rebroadcaster identity", func() []obs.KV {
			return []obs.KV{
				{Key: "name", Value: o.name},
				{Key: "group", Value: o.group},
				{Key: "channel", Value: fmt.Sprint(o.id)},
			}
		})
		srv, err := obs.Serve(o.opsAddr, reg)
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		log.Printf("ops endpoint at http://%s/metrics", srv.Addr())
	}

	v := vad.New(clock, vad.Config{})
	done := make(chan struct{})
	clock.Go("rebroadcast", func() {
		reb.Run(v.Master())
		close(done)
	})

	params := audio.Params{
		SampleRate: o.rate,
		Channels:   o.channels,
		Encoding:   audio.EncodingSLinear16LE,
	}
	in := bufio.NewReaderSize(os.Stdin, 1<<16)
	if o.wav {
		p, samples, err := audio.ReadWAV(in)
		if err != nil {
			log.Fatalf("reading WAV: %v", err)
		}
		params = p
		if err := playBytes(v, params, audio.Encode(p, samples)); err != nil {
			log.Fatal(err)
		}
	} else {
		if err := playStream(v, params, in); err != nil {
			log.Fatal(err)
		}
	}
	v.Close()
	<-done
	st := reb.Stats()
	fmt.Printf("sent %d control + %d data packets, %d payload bytes (source %d)\n",
		st.ControlPackets, st.DataPackets, st.PayloadBytes, st.SourceBytes)
}

// playBytes writes a complete clip into the VAD slave.
func playBytes(v *vad.VAD, p audio.Params, data []byte) error {
	slave := v.Slave()
	if err := slave.Open(p); err != nil {
		return err
	}
	defer slave.Close()
	if _, err := slave.Write(data); err != nil {
		return err
	}
	return slave.Drain()
}

// playStream copies stdin into the VAD slave until EOF.
func playStream(v *vad.VAD, p audio.Params, in io.Reader) error {
	slave := v.Slave()
	if err := slave.Open(p); err != nil {
		return err
	}
	defer slave.Close()
	buf := make([]byte, 32*1024)
	for {
		n, err := in.Read(buf)
		if n > 0 {
			if _, werr := slave.Write(buf[:n]); werr != nil {
				return werr
			}
		}
		if err == io.EOF {
			return slave.Drain()
		}
		if err != nil {
			return err
		}
	}
}
