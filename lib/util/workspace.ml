type t = {
  mutable cap : int;
  mutable dist_a : float array;
  mutable pred_a : int array;
  mutable stamp : int array;
  mutable gen : int;
  mutable hp : Indexed_heap.t;     (* ordered by [dist_a] *)
  mutable mark_cap : int;
  mutable mark_stamp : int array;
  mutable mark_gen : int;
  mutable floats_a : float array;
  mutable ints_a : int array;
  mutable ids_a : int array;
}

let grow_size needed current = max needed (max 16 (2 * current))

let create ?(capacity = 0) () =
  let cap = max capacity 1 in
  let dist_a = Array.make cap infinity in
  {
    cap;
    dist_a;
    pred_a = Array.make cap (-1);
    stamp = Array.make cap 0;
    gen = 1;
    hp = Indexed_heap.create ~prio:dist_a cap;
    mark_cap = 1;
    mark_stamp = Array.make 1 0;
    mark_gen = 1;
    floats_a = [||];
    ints_a = [||];
    ids_a = [||];
  }

let reset t n =
  if n < 0 then invalid_arg "Workspace.reset: negative state count";
  if n > t.cap then begin
    (* Fresh zero stamps never match the (monotone, >= 1) generation. *)
    let cap = grow_size n t.cap in
    t.cap <- cap;
    t.dist_a <- Array.make cap infinity;
    t.pred_a <- Array.make cap (-1);
    t.stamp <- Array.make cap 0;
    t.hp <- Indexed_heap.create ~prio:t.dist_a cap
  end;
  if t.gen = max_int then begin
    (* Generation wrap: one full clear every 2^62 searches. *)
    Array.fill t.stamp 0 t.cap 0;
    t.gen <- 0
  end;
  t.gen <- t.gen + 1

let dist t i = if t.stamp.(i) = t.gen then t.dist_a.(i) else infinity

(* lint: no-alloc *)
let pred t i = if t.stamp.(i) = t.gen then t.pred_a.(i) else -1

(* lint: no-alloc *)
let is_set t i = t.stamp.(i) = t.gen

(* lint: no-alloc *)
let set t i d p =
  t.dist_a.(i) <- d;
  t.pred_a.(i) <- p;
  t.stamp.(i) <- t.gen

(* lint: no-alloc *)
let generation t = t.gen

(* lint: no-alloc *)
let dists t = t.dist_a

(* lint: no-alloc *)
let preds t = t.pred_a

(* lint: no-alloc *)
let stamps t = t.stamp

let heap t =
  Indexed_heap.clear t.hp;
  t.hp

let floats t n =
  if n > Array.length t.floats_a then
    t.floats_a <- Array.make (grow_size n (Array.length t.floats_a)) 0.0;
  t.floats_a

let ints t n =
  if n > Array.length t.ints_a then
    t.ints_a <- Array.make (grow_size n (Array.length t.ints_a)) 0;
  t.ints_a

let ids t n =
  if n > Array.length t.ids_a then
    t.ids_a <- Array.make (grow_size n (Array.length t.ids_a)) 0;
  t.ids_a

let mark_reset t n =
  if n < 0 then invalid_arg "Workspace.mark_reset: negative id count";
  if n > t.mark_cap then begin
    let cap = grow_size n t.mark_cap in
    t.mark_cap <- cap;
    t.mark_stamp <- Array.make cap 0
  end;
  if t.mark_gen = max_int then begin
    Array.fill t.mark_stamp 0 t.mark_cap 0;
    t.mark_gen <- 0
  end;
  t.mark_gen <- t.mark_gen + 1

(* lint: no-alloc *)
let mark t i = t.mark_stamp.(i) <- t.mark_gen

(* lint: no-alloc *)
let unmark t i = t.mark_stamp.(i) <- 0

(* lint: no-alloc *)
let marked t i = t.mark_stamp.(i) = t.mark_gen
