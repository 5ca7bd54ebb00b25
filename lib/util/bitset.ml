type t = { mutable words : int array; capacity : int }

let bits_per_word = Sys.int_size

let words_for n = if n = 0 then 0 else (n - 1) / bits_per_word + 1

let create n =
  if n < 0 then invalid_arg "Bitset.create: negative capacity";
  { words = Array.make (words_for n) 0; capacity = n }

let capacity t = t.capacity

let copy t = { words = Array.copy t.words; capacity = t.capacity }

let check t i =
  if i < 0 || i >= t.capacity then
    invalid_arg
      (Printf.sprintf "Bitset: index %d out of bounds (capacity %d)" i
         t.capacity)

let set t i =
  check t i;
  let w = i / bits_per_word and b = i mod bits_per_word in
  t.words.(w) <- t.words.(w) lor (1 lsl b)

let unset t i =
  check t i;
  let w = i / bits_per_word and b = i mod bits_per_word in
  t.words.(w) <- t.words.(w) land lnot (1 lsl b)

let mem t i =
  check t i;
  let w = i / bits_per_word and b = i mod bits_per_word in
  t.words.(w) land (1 lsl b) <> 0

(* Branch-free SWAR population count of a 63-bit word: 2-, 4- and 8-bit
   partial sums, then one multiply gathers the byte sums into the top
   byte. The masks are the 64-bit ones cut to 63 bits; the total (at most
   63) fits the 7 bits the top byte has left. *)
let popcount x =
  if x = 0 then 0
  else
    let x = x - ((x lsr 1) land 0x5555_5555_5555_5555) in
    let x =
      (x land 0x3333_3333_3333_3333) + ((x lsr 2) land 0x3333_3333_3333_3333)
    in
    let x = (x + (x lsr 4)) land 0x0f0f_0f0f_0f0f_0f0f in
    (x * 0x0101_0101_0101_0101) lsr 56

let cardinal t = Array.fold_left (fun acc w -> acc + popcount w) 0 t.words

let is_empty t = Array.for_all (fun w -> w = 0) t.words

let equal a b =
  a.capacity = b.capacity
  && Array.for_all2 (fun x y -> x = y) a.words b.words

let same_capacity a b op =
  if a.capacity <> b.capacity then
    invalid_arg (Printf.sprintf "Bitset.%s: capacity mismatch" op)

let subset a b =
  same_capacity a b "subset";
  let ok = ref true in
  let n = Array.length a.words in
  let i = ref 0 in
  while !ok && !i < n do
    if a.words.(!i) land lnot b.words.(!i) <> 0 then ok := false;
    incr i
  done;
  !ok

let inter_into ~dst a b =
  same_capacity a b "inter";
  same_capacity dst a "inter";
  for i = 0 to Array.length dst.words - 1 do
    dst.words.(i) <- a.words.(i) land b.words.(i)
  done

let inter a b =
  let dst = create a.capacity in
  inter_into ~dst a b;
  dst

let inter_cardinal a b =
  same_capacity a b "inter_cardinal";
  let n = ref 0 in
  for i = 0 to Array.length a.words - 1 do
    n := !n + popcount (a.words.(i) land b.words.(i))
  done;
  !n

let intersects a b =
  same_capacity a b "intersects";
  let n = Array.length a.words in
  let rec from i =
    i < n && (a.words.(i) land b.words.(i) <> 0 || from (i + 1))
  in
  from 0

let union_into ~dst a b =
  same_capacity a b "union";
  same_capacity dst a "union";
  for i = 0 to Array.length dst.words - 1 do
    dst.words.(i) <- a.words.(i) lor b.words.(i)
  done

let union a b =
  let dst = create a.capacity in
  union_into ~dst a b;
  dst

let diff a b =
  same_capacity a b "diff";
  let dst = create a.capacity in
  for i = 0 to Array.length dst.words - 1 do
    dst.words.(i) <- a.words.(i) land lnot b.words.(i)
  done;
  dst

(* Position of the single set bit of [low]: the top 6 bits of
   [low * debruijn] (a de Bruijn multiply on 63-bit ints) differ for all
   63 powers of two, and [bit_of_slot] maps them back. *)
let debruijn = 0x03f7_9d71_b4cb_0a89

let slot low = (low * debruijn) lsr (bits_per_word - 6)

let bit_of_slot =
  String.init 64 (fun s ->
      let rec find b =
        if b = bits_per_word then '\255'
        else if slot (1 lsl b) = s then Char.chr b
        else find (b + 1)
      in
      find 0)

let lowest_bit word = Char.code bit_of_slot.[slot (word land (-word))]

(* From this many members on, scanning all 63 positions beats peeling
   the lowest set bit once per member. *)
let dense_word = 48

let iter f t =
  for w = 0 to Array.length t.words - 1 do
    let word = t.words.(w) in
    if word <> 0 then begin
      let base = w * bits_per_word in
      if popcount word >= dense_word then
        for b = 0 to bits_per_word - 1 do
          if word land (1 lsl b) <> 0 then f (base + b)
        done
      else begin
        let rest = ref word in
        while !rest <> 0 do
          f (base + lowest_bit !rest);
          rest := !rest land (!rest - 1)
        done
      end
    end
  done

let fold f t init =
  let acc = ref init in
  iter (fun i -> acc := f i !acc) t;
  !acc

exception Found

let exists p t =
  try
    iter (fun i -> if p i then raise Found) t;
    false
  with Found -> true

let for_all p t = not (exists (fun i -> not (p i)) t)

let to_list t = List.rev (fold (fun i acc -> i :: acc) t [])

let of_list n members =
  let t = create n in
  List.iter (fun i -> set t i) members;
  t

let full n =
  let t = create n in
  for i = 0 to n - 1 do
    set t i
  done;
  t

let clear t = Array.fill t.words 0 (Array.length t.words) 0

let choose t =
  let n = Array.length t.words in
  let rec scan w =
    if w >= n then None
    else if t.words.(w) = 0 then scan (w + 1)
    else Some ((w * bits_per_word) + lowest_bit t.words.(w))
  in
  scan 0

let pp ppf t =
  Format.fprintf ppf "@[<hov 1>{%a}@]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
       Format.pp_print_int)
    (to_list t)
