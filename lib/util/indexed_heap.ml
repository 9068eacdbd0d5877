(* Priorities enter through the key-indexed [prio] (possibly the caller's
   array) and are copied into [sprio] when a key is queued or updated, so
   sifting compares contiguous slots. *)
type t = {
  mutable size : int;
  keys : int array;        (* heap slot -> key *)
  sprio : float array;     (* heap slot -> priority *)
  pos : int array;         (* key -> heap slot, or -1 *)
  prio : float array;      (* key -> priority *)
}

let create ?prio capacity =
  if capacity < 0 then invalid_arg "Indexed_heap.create";
  let cap = max capacity 1 in
  let prio =
    match prio with
    | None -> Array.make cap nan
    | Some a ->
      if Array.length a < cap then
        invalid_arg "Indexed_heap.create: priority array shorter than capacity";
      a
  in
  {
    size = 0;
    keys = Array.make cap (-1);
    sprio = Array.make cap nan;
    pos = Array.make cap (-1);
    prio;
  }

let is_empty t = t.size = 0
let cardinal t = t.size

let mem t k = k >= 0 && k < Array.length t.pos && t.pos.(k) >= 0

let priority t k =
  if not (mem t k) then raise Not_found;
  t.sprio.(t.pos.(k))

(* lint: no-alloc *)
let swap t i j =
  let ki = t.keys.(i) and kj = t.keys.(j) in
  let pi = t.sprio.(i) and pj = t.sprio.(j) in
  t.keys.(i) <- kj; t.keys.(j) <- ki;
  t.sprio.(i) <- pj; t.sprio.(j) <- pi;
  t.pos.(kj) <- i; t.pos.(ki) <- j

(* lint: no-alloc *)
let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if t.sprio.(i) < t.sprio.(parent) then begin
      swap t i parent;
      sift_up t parent
    end
  end

(* lint: no-alloc *)
let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = if l < t.size && t.sprio.(l) < t.sprio.(i) then l else i in
  let smallest =
    if r < t.size && t.sprio.(r) < t.sprio.(smallest) then r else smallest
  in
  if smallest <> i then begin
    swap t i smallest;
    sift_down t smallest
  end

(* lint: no-alloc *)
let push t k =
  let i = t.size in
  t.size <- t.size + 1;
  t.keys.(i) <- k;
  t.sprio.(i) <- t.prio.(k);
  t.pos.(k) <- i;
  sift_up t i

(* lint: no-alloc *)
let insert t k p =
  if k < 0 || k >= Array.length t.pos then invalid_arg "Indexed_heap.insert: key out of range";
  if t.pos.(k) >= 0 then invalid_arg "Indexed_heap.insert: key already queued";
  t.prio.(k) <- p;
  push t k

(* lint: no-alloc *)
let decrease t k p =
  if not (mem t k) then invalid_arg "Indexed_heap.decrease: key not queued";
  let i = t.pos.(k) in
  if p > t.sprio.(i) then invalid_arg "Indexed_heap.decrease: priority increase";
  t.prio.(k) <- p;
  t.sprio.(i) <- p;
  sift_up t i

(* lint: no-alloc *)
let insert_or_decrease t k p =
  if mem t k then begin
    if p < t.sprio.(t.pos.(k)) then decrease t k p
  end else insert t k p

(* lint: no-alloc *)
let update t k =
  if k < 0 || k >= Array.length t.pos then invalid_arg "Indexed_heap.update: key out of range";
  let i = t.pos.(k) in
  if i >= 0 then begin
    t.sprio.(i) <- t.prio.(k);
    sift_up t i
  end
  else push t k

(* lint: no-alloc *)
let pop t =
  if t.size = 0 then -1
  else begin
    let k = t.keys.(0) in
    t.size <- t.size - 1;
    if t.size > 0 then begin
      let last = t.size in
      t.keys.(0) <- t.keys.(last);
      t.sprio.(0) <- t.sprio.(last);
      t.pos.(t.keys.(0)) <- 0;
      sift_down t 0
    end;
    t.pos.(k) <- -1;
    k
  end

let clear t =
  for i = 0 to t.size - 1 do
    t.pos.(t.keys.(i)) <- -1
  done;
  t.size <- 0
