// Package audiodev models the OpenBSD audio subsystem in user space: the
// device-independent high-level driver (audio(4) semantics — ring buffer,
// blocking writes, silence insertion on underrun) and the audio(9)
// low-level driver contract (TriggerOutput called once when the first
// block is ready, after which the hardware autonomously consumes blocks
// and "interrupts" back). The paper's VAD is a low-level driver with no
// hardware behind it, and every design problem in §3.3 falls out of this
// contract — so we reproduce the contract itself.
//
// Time belongs to the low-level driver. SimHardware paces its blocks on
// deadlines counted from its trigger (at its own SetSpeed ratio), hands
// each fetch the moment the block will have played out, and the Device
// turns that into a play cursor (PlayCursor): when a byte written now
// will start playing, the question a sound card's DMA position register
// answers. Whoever needs to know where playback is reads the cursor
// instead of assuming the nominal rate.
package audiodev
