let mean = function
  | [] -> nan
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let mean_int xs = mean (List.map float_of_int xs)

let sorted xs = List.sort compare xs

let median xs =
  match sorted xs with
  | [] -> nan
  | s ->
    let n = List.length s in
    let nth i = List.nth s i in
    if n mod 2 = 1 then nth (n / 2)
    else (nth ((n / 2) - 1) +. nth (n / 2)) /. 2.0

let stddev xs =
  match xs with
  | [] -> nan
  | _ ->
    let m = mean xs in
    let var =
      List.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 xs
      /. float_of_int (List.length xs)
    in
    sqrt var

let minimum = function [] -> nan | x :: xs -> List.fold_left Float.min x xs

let maximum = function [] -> nan | x :: xs -> List.fold_left Float.max x xs

let percentile_sorted p a =
  let n = Array.length a in
  if n = 0 then nan
  else
    (* nearest rank: the smallest value with at least p% of the samples
       at or below it *)
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let percentile p xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  percentile_sorted p a

let round_to d x =
  let f = 10.0 ** float_of_int d in
  Float.round (x *. f) /. f
