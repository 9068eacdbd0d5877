let bits_per_word = 62

type t = { width : int; words : int array }

let nwords width = (width + bits_per_word - 1) / bits_per_word

let create width =
  if width < 0 then invalid_arg "Bitset.create";
  { width; words = Array.make (max 1 (nwords width)) 0 }

let width t = t.width

let check t i =
  if i < 0 || i >= t.width then invalid_arg "Bitset: element out of range"

(* lint: no-alloc *)
let mem t i =
  check t i;
  let w = i / bits_per_word and b = i mod bits_per_word in
  t.words.(w) land (1 lsl b) <> 0

let add t i =
  check t i;
  let w = i / bits_per_word and b = i mod bits_per_word in
  let words = Array.copy t.words in
  words.(w) <- words.(w) lor (1 lsl b);
  { t with words }

let remove t i =
  check t i;
  let w = i / bits_per_word and b = i mod bits_per_word in
  let words = Array.copy t.words in
  words.(w) <- words.(w) land lnot (1 lsl b);
  { t with words }

let full w =
  let t = create w in
  let words = Array.copy t.words in
  let full_word = (1 lsl bits_per_word) - 1 in
  for i = 0 to Array.length words - 1 do
    words.(i) <- full_word
  done;
  (* Mask off unused high bits of the last word. *)
  let rem = w mod bits_per_word in
  if rem > 0 && w > 0 then
    words.(Array.length words - 1) <- (1 lsl rem) - 1;
  if w = 0 then words.(0) <- 0;
  { width = w; words }

let is_empty t = Array.for_all (fun w -> w = 0) t.words

(* SWAR popcount of one word.  Words hold bits 0..61 only, so every mask
   fits in OCaml's 63-bit int; the byte sums multiply into bits 56..61
   (at most 62 < 64, no carry into the lost top bits). *)
(* lint: no-alloc *)
let popcount x =
  let x = x - ((x lsr 1) land 0x1555_5555_5555_5555) in
  let x = (x land 0x3333_3333_3333_3333) + ((x lsr 2) land 0x3333_3333_3333_3333) in
  let x = (x + (x lsr 4)) land 0x0F0F_0F0F_0F0F_0F0F in
  ((x * 0x0101_0101_0101_0101) lsr 56) land 0x7F

(* Index of the lowest set bit of a non-zero word. *)
(* lint: no-alloc *)
let lowest_bit x = popcount ((x land -x) - 1)

let cardinal t =
  let c = ref 0 in
  for i = 0 to Array.length t.words - 1 do
    c := !c + popcount t.words.(i)
  done;
  !c

(* lint: no-alloc *)
let nwords t = Array.length t.words

(* lint: no-alloc *)
let word t i = t.words.(i)

let of_list w l = List.fold_left add (create w) l

(* Visit set bits word by word, jumping from one set bit to the next. *)
let fold f t init =
  let acc = ref init in
  for i = 0 to Array.length t.words - 1 do
    let x = ref t.words.(i) in
    while !x <> 0 do
      acc := f ((i * bits_per_word) + lowest_bit !x) !acc;
      x := !x land (!x - 1)
    done
  done;
  !acc

let to_list t = List.rev (fold (fun i acc -> i :: acc) t [])
let elements = to_list

let iter f t =
  for i = 0 to Array.length t.words - 1 do
    let x = ref t.words.(i) in
    while !x <> 0 do
      f ((i * bits_per_word) + lowest_bit !x);
      x := !x land (!x - 1)
    done
  done

let binop name op a b =
  if a.width <> b.width then invalid_arg ("Bitset." ^ name ^ ": width mismatch");
  { width = a.width; words = Array.init (Array.length a.words) (fun i -> op a.words.(i) b.words.(i)) }

let union a b = binop "union" ( lor ) a b
let inter a b = binop "inter" ( land ) a b
let diff a b = binop "diff" (fun x y -> x land lnot y) a b

let subset a b =
  if a.width <> b.width then invalid_arg "Bitset.subset: width mismatch";
  let ok = ref true in
  for i = 0 to Array.length a.words - 1 do
    if a.words.(i) land lnot b.words.(i) <> 0 then ok := false
  done;
  !ok

let equal a b =
  a.width = b.width
  && Array.length a.words = Array.length b.words
  &&
  let same = ref true in
  for i = 0 to Array.length a.words - 1 do
    if a.words.(i) <> b.words.(i) then same := false
  done;
  !same

let choose t =
  let rec go i =
    if i >= Array.length t.words then None
    else if t.words.(i) <> 0 then
      Some ((i * bits_per_word) + lowest_bit t.words.(i))
    else go (i + 1)
  in
  go 0

let pp fmt t =
  Format.fprintf fmt "{%s}" (String.concat "," (List.map string_of_int (to_list t)))
