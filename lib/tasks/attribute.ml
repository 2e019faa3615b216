type t = {
  controllable : bool;
  triggerable : bool;
  rejectable : bool;
  delayable : bool;
}

let default =
  { controllable = true; triggerable = false; rejectable = true; delayable = true }

let uncontrollable =
  { controllable = false; triggerable = false; rejectable = false; delayable = false }

let triggerable = { default with triggerable = true }
