(** CRC-32 (IEEE, polynomial 0xEDB88320) — the checksum of the log's
    frame format.  Standard reflected table-driven implementation, so
    checked-in binary fixtures remain verifiable with any off-the-shelf
    CRC-32 tool. *)

val bytes : bytes -> pos:int -> len:int -> int32
