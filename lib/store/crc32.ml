(* CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), table-driven.

   Hand-rolled because the frame format needs a checksum and the build
   carries no external dependencies.  The algorithm is the ubiquitous
   one (zlib, PNG, Ethernet), so fixtures checked into test/data stay
   valid against any standard implementation.

   The table and the accumulator are native ints holding 32-bit values
   (OCaml ints have at least 63 bits), so the loop allocates nothing;
   only the result is boxed as an [int32]. *)

let table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let bytes b ~pos ~len =
  let c = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    c :=
      Array.unsafe_get table ((!c lxor Char.code (Bytes.get b i)) land 0xFF)
      lxor (!c lsr 8)
  done;
  Int32.of_int (!c lxor 0xFFFFFFFF)
