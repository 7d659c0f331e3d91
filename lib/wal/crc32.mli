(** CRC-32 (IEEE 802.3) checksums for WAL frame integrity.

    The reflected polynomial 0xedb88320 variant used by zlib, Ethernet
    and PNG: a well-understood error-detection code that catches all
    single-bit flips and any burst of up to 32 bits — the torn-write
    and bit-rot failure modes log replay must reject. *)

val string : ?pos:int -> ?len:int -> string -> int
(** CRC-32 of [len] bytes of [s] starting at [pos] (defaults: the whole
    string).  The result is in [\[0, 2{^32})]. *)
