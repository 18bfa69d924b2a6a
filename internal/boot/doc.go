// Package boot simulates the Ethernet Speaker provisioning path of
// §2.4: maintenance-free speakers netboot a ramdisk kernel (PXE), obtain
// their network identity from a DHCP-style lease server, and fetch a
// machine-specific configuration tar that is expanded over the ramdisk's
// skeleton /etc — machine-specific files overwrite the common ones. The
// boot server's public key lives in the ramdisk, standing in for the ssh
// host keys the paper bakes in for scp.
//
// It is a standalone §2.4 artefact: nothing else in the module imports
// it — the daemons take their configuration from flags and key files —
// and its own tests are its only caller.
package boot
