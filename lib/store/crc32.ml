(* CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), table-driven.

   Hand-rolled because the frame format needs a checksum and the build
   carries no external dependencies.  The algorithm is the ubiquitous
   one (zlib, PNG, Ethernet), so fixtures checked into test/data stay
   valid against any standard implementation. *)

let table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref (Int32.of_int n) in
         for _ = 0 to 7 do
           c :=
             if Int32.logand !c 1l <> 0l then
               Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
             else Int32.shift_right_logical !c 1
         done;
         !c))

let update crc b ~pos ~len =
  let t = Lazy.force table in
  let c = ref (Int32.lognot crc) in
  for i = pos to pos + len - 1 do
    let idx =
      Int32.to_int (Int32.logand (Int32.logxor !c (Int32.of_int (Char.code (Bytes.get b i)))) 0xFFl)
    in
    c := Int32.logxor t.(idx) (Int32.shift_right_logical !c 8)
  done;
  Int32.lognot !c

let bytes b ~pos ~len = update 0l b ~pos ~len
