(* CRC-32 with the reflected IEEE polynomial 0xEDB88320, table-driven,
   in native (63-bit) ints, so the byte loop allocates nothing. *)

(* built eagerly at module init: a [lazy] here could be forced from
   several pool domains at once (checkpoint writers), which OCaml 5 lazy
   blocks do not allow *)
let table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        if !c land 1 <> 0 then c := 0xEDB88320 lxor (!c lsr 1)
        else c := !c lsr 1
      done;
      !c)

(* the running (pre-finalization) state: start at all-ones, fold each
   byte through the table, xor with all-ones to finish *)
type stream = int

let init = 0xFFFFFFFF

let feed_sub st s ~pos ~len =
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg "Checksum.feed_sub";
  let crc = ref st in
  for i = pos to pos + len - 1 do
    crc :=
      table.((!crc lxor Char.code (String.unsafe_get s i)) land 0xFF)
      lxor (!crc lsr 8)
  done;
  !crc

let feed st s = feed_sub st s ~pos:0 ~len:(String.length s)
let finish st = Int32.of_int (st lxor 0xFFFFFFFF)

let crc32_sub s ~pos ~len =
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg "Checksum.crc32_sub";
  finish (feed_sub init s ~pos ~len)

let crc32 s = crc32_sub s ~pos:0 ~len:(String.length s)

let to_hex c = Printf.sprintf "%08lx" c

(* a loop over a local ref keeps the int64 unboxed; a closure over the
   ref would box it at every byte *)
let fnv1a64 s =
  let h = ref 0xcbf29ce484222325L in
  for i = 0 to String.length s - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i))))
        0x100000001b3L
  done;
  !h

let mix64 a b =
  (* splitmix64 finalizer over the xor-rotated pair; order-sensitive *)
  let rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k)) in
  let z = ref (Int64.logxor (rotl a 17) b) in
  z := Int64.mul (Int64.logxor !z (Int64.shift_right_logical !z 30)) 0xbf58476d1ce4e5b9L;
  z := Int64.mul (Int64.logxor !z (Int64.shift_right_logical !z 27)) 0x94d049bb133111ebL;
  Int64.logxor !z (Int64.shift_right_logical !z 31)
